#[test]
fn explain_renders_the_tree() {
    let plan = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::SummaryIndexScan {
                    index: "idx".into(),
                    label: "Disease".into(),
                    lo: Some(5),
                    hi: None,
                    propagate: true,
                    reverse: true,
                }),
                pred: Expr::Const(Value::Bool(true)),
            }),
            key: SortKey::Summary(SummaryExpr::label_value("C", "Disease")),
            desc: true,
            disk: true,
        }),
        n: 10,
    };
    let shown = format!("{plan}");
    assert!(shown.contains("Limit(10)"));
    assert!(shown.contains("Sort(O, desc, external)"));
    assert!(shown.contains("SummaryIndexScan(idx, Disease in [5, +∞], desc)"));
    // Indentation deepens down the tree.
    let lines: Vec<&str> = shown.lines().collect();
    assert!(lines[1].starts_with("  "));
    assert!(lines[3].starts_with("      "));
}
