//! Per-dataset statistics and per-plug-in cost profiles (§5.2, "Enabling
//! Cost-based Optimizations").
//!
//! "Proteus uses a metadata store to maintain statistics per data source,
//! namely dataset cardinalities and min/max values per attribute, and
//! delegates statistics collection to each input plug-in. [...] Regarding
//! costing, each input plug-in uses different cost formulas, which it
//! instantiates with data statistics to provide cost estimates to the query
//! optimizer."

use std::collections::HashMap;

use proteus_algebra::Value;

/// Min/max/distinct statistics for a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest observed value.
    pub min: Value,
    /// Largest observed value.
    pub max: Value,
    /// Approximate number of distinct values (exact for small samples).
    pub distinct: u64,
    /// Number of null/missing occurrences.
    pub nulls: u64,
}

impl ColumnStats {
    /// Statistics of an empty column.
    pub fn empty() -> ColumnStats {
        ColumnStats {
            min: Value::Null,
            max: Value::Null,
            distinct: 0,
            nulls: 0,
        }
    }

    /// Folds another partial statistic into this one: min/max widen through
    /// `Value::total_cmp` (ignoring `Null` bounds), null counts add. This is
    /// the aggregation path the per-morsel zone maps use to produce the
    /// dataset-level statistics, so the two representations cannot drift.
    /// Distinct counts are not mergeable from bounds; the larger estimate
    /// wins.
    pub fn merge(&mut self, other: &ColumnStats) {
        if !other.min.is_null()
            && (self.min.is_null() || other.min.total_cmp(&self.min) == std::cmp::Ordering::Less)
        {
            self.min = other.min.clone();
        }
        if !other.max.is_null()
            && (self.max.is_null() || other.max.total_cmp(&self.max) == std::cmp::Ordering::Greater)
        {
            self.max = other.max.clone();
        }
        self.nulls += other.nulls;
        self.distinct = self.distinct.max(other.distinct);
    }

    /// Estimated selectivity of the predicate `attr < bound` assuming a
    /// uniform distribution between min and max. Falls back to the paper's
    /// default (10 %) when the statistics cannot answer.
    pub fn selectivity_lt(&self, bound: &Value) -> f64 {
        match (self.min.as_float(), self.max.as_float(), bound.as_float()) {
            (Ok(min), Ok(max), Ok(b)) if max > min => ((b - min) / (max - min)).clamp(0.0, 1.0),
            _ => DEFAULT_SELECTIVITY,
        }
    }

    /// Estimated selectivity of the predicate `attr = literal`.
    pub fn selectivity_eq(&self) -> f64 {
        if self.distinct > 0 {
            (1.0 / self.distinct as f64).min(1.0)
        } else {
            DEFAULT_SELECTIVITY
        }
    }
}

/// The paper's baseline assumption when no statistics exist: "assume that the
/// default selectivity of a predicate is 10%".
pub const DEFAULT_SELECTIVITY: f64 = 0.10;

/// Statistics for one dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetStats {
    /// Number of data objects.
    pub cardinality: u64,
    /// Per-attribute statistics (keyed by top-level field name).
    pub columns: HashMap<String, ColumnStats>,
    /// True if the statistics came from a sample rather than a full pass.
    pub sampled: bool,
}

impl DatasetStats {
    /// Creates statistics with just a cardinality.
    pub fn with_cardinality(cardinality: u64) -> DatasetStats {
        DatasetStats {
            cardinality,
            columns: HashMap::new(),
            sampled: false,
        }
    }

    /// Statistics for one attribute, if collected.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        self.columns.get(name)
    }

    /// Selectivity estimate for `attr < bound`, using the default when the
    /// attribute has no statistics.
    pub fn selectivity_lt(&self, attr: &str, bound: &Value) -> f64 {
        self.columns
            .get(attr)
            .map(|c| c.selectivity_lt(bound))
            .unwrap_or(DEFAULT_SELECTIVITY)
    }
}

/// Builds [`ColumnStats`] incrementally while a plug-in scans values (cold
/// access / materialization-time statistics collection).
#[derive(Debug, Clone, Default)]
pub struct StatsCollector {
    values_seen: u64,
    min: Option<Value>,
    max: Option<Value>,
    nulls: u64,
    distinct_sample: Vec<u64>,
}

impl StatsCollector {
    /// Creates an empty collector.
    pub fn new() -> StatsCollector {
        StatsCollector::default()
    }

    /// Folds one value into the running statistics.
    pub fn observe(&mut self, value: &Value) {
        self.values_seen += 1;
        if value.is_null() {
            self.nulls += 1;
            return;
        }
        let replace_min = match &self.min {
            None => true,
            Some(m) => value.total_cmp(m) == std::cmp::Ordering::Less,
        };
        if replace_min {
            self.min = Some(value.clone());
        }
        let replace_max = match &self.max {
            None => true,
            Some(m) => value.total_cmp(m) == std::cmp::Ordering::Greater,
        };
        if replace_max {
            self.max = Some(value.clone());
        }
        // Distinct estimation: keep a bounded sample of hashes.
        let hash = value.stable_hash();
        if self.distinct_sample.len() < 4096 && !self.distinct_sample.contains(&hash) {
            self.distinct_sample.push(hash);
        }
    }

    /// Number of values observed (including nulls).
    pub fn count(&self) -> u64 {
        self.values_seen
    }

    /// Finalizes the statistics.
    pub fn finish(self) -> ColumnStats {
        ColumnStats {
            min: self.min.unwrap_or(Value::Null),
            max: self.max.unwrap_or(Value::Null),
            distinct: self.distinct_sample.len() as u64,
            nulls: self.nulls,
        }
    }
}

/// Per-plug-in cost factors, instantiated with statistics by the optimizer's
/// cost formulas. All factors are relative to reading one already-parsed
/// binary value (cost 1.0).
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Cost of producing one tuple's OID and advancing the scan.
    pub per_tuple_scan: f64,
    /// Cost of extracting + converting one field value.
    pub per_field_access: f64,
    /// Cost of navigating one nesting level (readPath step).
    pub per_path_step: f64,
    /// One-time cost per byte the first time the dataset is accessed
    /// (parsing/validation/index construction), amortized by the optimizer
    /// over expected reuse.
    pub cold_cost_per_byte: f64,
}

impl CostProfile {
    /// Cost profile of binary columnar data: direct positional reads.
    pub fn binary() -> CostProfile {
        CostProfile {
            per_tuple_scan: 1.0,
            per_field_access: 1.0,
            per_path_step: 1.0,
            cold_cost_per_byte: 0.0,
        }
    }

    /// Cost profile of CSV data accessed through a structural index.
    pub fn csv() -> CostProfile {
        CostProfile {
            per_tuple_scan: 2.0,
            per_field_access: 6.0,
            per_path_step: 2.0,
            cold_cost_per_byte: 0.5,
        }
    }

    /// Cost profile of JSON data accessed through a structural index.
    pub fn json() -> CostProfile {
        CostProfile {
            per_tuple_scan: 3.0,
            per_field_access: 10.0,
            per_path_step: 4.0,
            cold_cost_per_byte: 1.0,
        }
    }

    /// Estimated cost of scanning `tuples` objects touching `fields` fields
    /// each — the textbook formula the default plug-in skeleton provides.
    pub fn scan_cost(&self, tuples: u64, fields: usize) -> f64 {
        tuples as f64 * (self.per_tuple_scan + self.per_field_access * fields as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_tracks_min_max_nulls_distinct() {
        let mut c = StatsCollector::new();
        for v in [
            Value::Int(5),
            Value::Int(1),
            Value::Null,
            Value::Int(9),
            Value::Int(1),
        ] {
            c.observe(&v);
        }
        assert_eq!(c.count(), 5);
        let stats = c.finish();
        assert_eq!(stats.min, Value::Int(1));
        assert_eq!(stats.max, Value::Int(9));
        assert_eq!(stats.nulls, 1);
        assert_eq!(stats.distinct, 3);
    }

    #[test]
    fn selectivity_lt_interpolates() {
        let stats = ColumnStats {
            min: Value::Int(0),
            max: Value::Int(100),
            distinct: 100,
            nulls: 0,
        };
        assert!((stats.selectivity_lt(&Value::Int(50)) - 0.5).abs() < 1e-9);
        assert_eq!(stats.selectivity_lt(&Value::Int(-10)), 0.0);
        assert_eq!(stats.selectivity_lt(&Value::Int(500)), 1.0);
    }

    #[test]
    fn selectivity_defaults_without_stats() {
        let stats = DatasetStats::with_cardinality(100);
        assert_eq!(
            stats.selectivity_lt("missing", &Value::Int(3)),
            DEFAULT_SELECTIVITY
        );
        let empty = ColumnStats::empty();
        assert_eq!(empty.selectivity_lt(&Value::Int(3)), DEFAULT_SELECTIVITY);
        assert_eq!(empty.selectivity_eq(), DEFAULT_SELECTIVITY);
    }

    #[test]
    fn merge_widens_bounds_and_adds_nulls() {
        let mut a = ColumnStats {
            min: Value::Int(5),
            max: Value::Int(9),
            distinct: 3,
            nulls: 1,
        };
        let b = ColumnStats {
            min: Value::Int(1),
            max: Value::Int(7),
            distinct: 2,
            nulls: 4,
        };
        a.merge(&b);
        assert_eq!(a.min, Value::Int(1));
        assert_eq!(a.max, Value::Int(9));
        assert_eq!(a.nulls, 5);
        assert_eq!(a.distinct, 3);
        // Null bounds (empty partials) never narrow or poison the result.
        a.merge(&ColumnStats::empty());
        assert_eq!(a.min, Value::Int(1));
        let mut empty = ColumnStats::empty();
        empty.merge(&a);
        assert_eq!(empty.min, Value::Int(1));
        assert_eq!(empty.max, Value::Int(9));
    }

    #[test]
    fn selectivity_eq_uses_distinct() {
        let stats = ColumnStats {
            min: Value::Int(0),
            max: Value::Int(9),
            distinct: 10,
            nulls: 0,
        };
        assert!((stats.selectivity_eq() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn cost_profiles_rank_formats() {
        let json = CostProfile::json().scan_cost(1000, 3);
        let csv = CostProfile::csv().scan_cost(1000, 3);
        let bin = CostProfile::binary().scan_cost(1000, 3);
        assert!(json > csv && csv > bin);
    }
}
