//! The paper's running example (Example 3.1 / Figure 1): sailors with nested
//! children arrays joined with ships through their personnel lists, expressed
//! in the comprehension syntax and executed over JSON files.
//!
//! Run with: `cargo run --example sailors_ships`

use proteus::prelude::*;

fn main() {
    let dir = std::env::temp_dir().join("proteus_example_sailors");
    std::fs::create_dir_all(&dir).unwrap();

    std::fs::write(
        dir.join("sailors.json"),
        r#"{"id": 1, "name": "keller", "children": [{"name": "ann", "age": 20}, {"name": "bob", "age": 10}]}
{"id": 2, "name": "silver", "children": [{"name": "eve", "age": 30}]}
{"id": 3, "name": "flint", "children": []}
"#,
    )
    .unwrap();
    std::fs::write(
        dir.join("ships.json"),
        r#"{"name": "Calypso", "personnel": [1, 3]}
{"name": "Nautilus", "personnel": [2]}
"#,
    )
    .unwrap();

    let engine = QueryEngine::with_defaults();
    engine
        .register_json("Sailor", dir.join("sailors.json"))
        .unwrap();
    engine
        .register_json("Ship", dir.join("ships.json"))
        .unwrap();

    // Example 3.1: "For each Sailor, return his id, the name of the Ship on
    // which he works, and the names of his adult children."
    let query = "for { s1 <- Sailor, c <- s1.children, s2 <- Ship, \
                 p <- s2.personnel, s1.id = p, c.age > 18 } \
                 yield bag (s1.id, s2.name, c.name)";
    let result = engine.comprehension(query).unwrap();

    println!("query: {query}\n");
    println!(
        "optimized plan:\n{}",
        proteus::algebra::pretty::explain(&result.plan)
    );
    println!("results:");
    for row in result.flattened_rows() {
        println!("  {row}");
    }
    // CI runs this example as its unnest smoke: the answers are pinned.
    let triples: Vec<String> = result
        .flattened_rows()
        .iter()
        .map(Value::to_string)
        .collect();
    assert_eq!(
        triples,
        [
            r#"{s1_id: 1, s2_name: "Calypso", c_name: "ann"}"#,
            r#"{s1_id: 2, s2_name: "Nautilus", c_name: "eve"}"#
        ]
    );

    // The same data also answers plain aggregations.
    let adults = engine
        .comprehension("for { s <- Sailor, c <- s.children, c.age > 18 } yield count")
        .unwrap();
    println!("\nadult children across all sailors: {}", adults.rows[0]);
    assert_eq!(adults.scalar("result"), Some(Value::Int(2)));

    let oldest = engine
        .comprehension("for { s <- Sailor, c <- s.children } yield max c.age")
        .unwrap();
    println!("oldest child: {}", oldest.rows[0]);
    assert_eq!(oldest.scalar("result"), Some(Value::Int(30)));
    // Both aggregations read one element leaf: they run on the typed unnest.
    assert!(oldest.ir.contains("typed expand [age]"), "{}", oldest.ir);
}
