use proptest::prelude::*;

use crate::typed::{prop, Expr};
use crate::{
    restrict, CmpOp, EvalNode, FilterIndex, Predicate, PropPath, PropertySource, RemoteFilter,
    Value, WireFilter,
};

fn quote(company: &str, price: f64, amount: i64) -> Value {
    Value::record([
        ("company", Value::from(company)),
        ("price", Value::from(price)),
        ("amount", Value::from(amount)),
    ])
}

mod value_semantics {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn numeric_coercion_in_compare() {
        assert_eq!(
            Value::Int(1).compare(&Value::Float(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::UInt(2).compare(&Value::Int(3)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(-1).compare(&Value::UInt(0)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::UInt(u64::MAX).compare(&Value::Int(5)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn mismatched_types_are_incomparable() {
        assert_eq!(Value::Str("a".into()).compare(&Value::Int(1)), None);
        assert_eq!(Value::Bool(true).compare(&Value::Int(1)), None);
    }

    #[test]
    fn nan_is_incomparable_but_hashable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.compare(&nan), None);
        assert!(!nan.loose_eq(&nan));
        // Bitwise equality still holds for dedup purposes.
        assert_eq!(nan, Value::Float(f64::NAN));
    }

    #[test]
    fn loose_eq_descends_into_structures() {
        let a = Value::List(vec![Value::Int(1), Value::Float(2.0)]);
        let b = Value::List(vec![Value::Float(1.0), Value::Int(2)]);
        assert!(a.loose_eq(&b));
        let r1 = Value::record([("x", Value::Int(1))]);
        let r2 = Value::record([("x", Value::Float(1.0))]);
        assert!(r1.loose_eq(&r2));
        let r3 = Value::record([("y", Value::Int(1))]);
        assert!(!r1.loose_eq(&r3));
    }

    #[test]
    fn property_lookup_traverses_nested_records() {
        let v = Value::record([(
            "market",
            Value::record([("name", Value::from("ZRH"))]),
        )]);
        assert_eq!(
            v.property(&PropPath::parse("market.name")),
            Some(Value::from("ZRH"))
        );
        assert_eq!(v.property(&PropPath::parse("market.missing")), None);
        assert_eq!(v.property(&PropPath::parse("market.name.deeper")), None);
    }

    #[test]
    fn display_renders_structures() {
        let v = Value::record([("xs", Value::from(vec![1i64, 2]))]);
        assert_eq!(v.to_string(), "{xs: [1, 2]}");
    }
}

mod predicates {
    use super::*;

    #[test]
    fn comparison_operators() {
        let q = quote("Telco Mobiles", 80.0, 10);
        assert!(Predicate::new("price", CmpOp::Lt, 100.0).eval(&q));
        assert!(!Predicate::new("price", CmpOp::Lt, 80.0).eval(&q));
        assert!(Predicate::new("price", CmpOp::Le, 80.0).eval(&q));
        assert!(Predicate::new("price", CmpOp::Gt, 79.9).eval(&q));
        assert!(Predicate::new("price", CmpOp::Ge, 80.0).eval(&q));
        assert!(Predicate::new("amount", CmpOp::Eq, 10).eval(&q));
        assert!(Predicate::new("amount", CmpOp::Ne, 11).eval(&q));
    }

    #[test]
    fn string_operators() {
        let q = quote("Telco Mobiles", 80.0, 10);
        assert!(Predicate::new("company", CmpOp::Contains, "Telco").eval(&q));
        assert!(Predicate::new("company", CmpOp::StartsWith, "Telco").eval(&q));
        assert!(Predicate::new("company", CmpOp::EndsWith, "Mobiles").eval(&q));
        assert!(!Predicate::new("company", CmpOp::Contains, "Bank").eval(&q));
    }

    #[test]
    fn list_contains() {
        let v = Value::record([("tags", Value::from(vec!["a", "b"]))]);
        assert!(Predicate::new("tags", CmpOp::Contains, "a").eval(&v));
        assert!(!Predicate::new("tags", CmpOp::Contains, "c").eval(&v));
    }

    #[test]
    fn missing_property_fails_everything_but_exists_detects_presence() {
        let q = quote("T", 1.0, 1);
        assert!(!Predicate::new("venue", CmpOp::Eq, "x").eval(&q));
        assert!(!Predicate::new("venue", CmpOp::Ne, "x").eval(&q));
        assert!(!Predicate::new("venue", CmpOp::Exists, Value::Unit).eval(&q));
        assert!(Predicate::new("price", CmpOp::Exists, Value::Unit).eval(&q));
    }

    #[test]
    fn type_mismatch_is_false_not_error() {
        let q = quote("T", 1.0, 1);
        assert!(!Predicate::new("company", CmpOp::Lt, 10).eval(&q));
        assert!(!Predicate::new("price", CmpOp::Contains, "1").eval(&q));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Predicate::new("price", CmpOp::Lt, 100.0).to_string(),
            "price < 100"
        );
        assert_eq!(
            Predicate::new("x", CmpOp::Exists, Value::Unit).to_string(),
            "x exists"
        );
    }
}

mod filters {
    use super::*;

    #[test]
    fn pass_all_matches_everything() {
        let f = RemoteFilter::pass_all();
        assert!(f.is_pass_all());
        assert!(f.matches(&quote("A", 1.0, 1)));
        assert!(f.matches(&Value::Unit));
    }

    #[test]
    fn paper_example_filter() {
        // §2.3.3: price < 100 && company.indexOf("Telco") != -1
        let f = rfilter!(price < 100.0 && company contains "Telco");
        assert!(f.matches(&quote("Telco Mobiles", 80.0, 10)));
        assert!(!f.matches(&quote("Telco Mobiles", 120.0, 10)));
        assert!(!f.matches(&quote("Banco", 80.0, 10)));
    }

    #[test]
    fn and_or_negate_combinators() {
        let cheap = rfilter!(price < 50.0);
        let telco = rfilter!(company contains "Telco");
        let both = cheap.clone().and(telco.clone());
        let either = cheap.clone().or(telco.clone());
        let not_cheap = cheap.negate();

        let q = quote("Telco", 80.0, 1);
        assert!(!both.matches(&q));
        assert!(either.matches(&q));
        assert!(not_cheap.matches(&q));
    }

    #[test]
    fn or_remaps_predicate_indices() {
        let f = rfilter!(price < 10.0).or(rfilter!(amount > 5));
        assert_eq!(f.predicates().len(), 2);
        assert!(f.matches(&quote("X", 5.0, 1)));
        assert!(f.matches(&quote("X", 50.0, 6)));
        assert!(!f.matches(&quote("X", 50.0, 1)));
    }

    #[test]
    #[should_panic(expected = "references predicate")]
    fn from_parts_rejects_out_of_bounds_leaves() {
        RemoteFilter::from_parts(vec![], EvalNode::Pred(0));
    }

    #[test]
    fn display_renders_expression() {
        let f = rfilter!(price < 100.0 && company contains "Telco");
        let s = f.to_string();
        assert!(s.contains("price < 100"));
        assert!(s.contains("&&"));
    }

    #[test]
    fn serde_roundtrip_via_codec() {
        let f = rfilter!(price < 100.0 && market.name == "ZRH");
        let bytes = psc_codec::to_bytes(&f).unwrap();
        let back: RemoteFilter = psc_codec::from_bytes(&bytes).unwrap();
        assert_eq!(f, back);
    }

    /// `[predicates: 0][Not tag × depth][True tag]` — what a hostile peer
    /// sends; built by hand because encoding it would recurse as deep.
    fn not_chain_bytes(depth: usize) -> Vec<u8> {
        let not_tag = psc_codec::to_bytes(&EvalNode::Not(Box::new(EvalNode::True))).unwrap()[0];
        let mut bytes = vec![0u8];
        bytes.extend(std::iter::repeat_n(not_tag, depth));
        bytes.push(psc_codec::to_bytes(&EvalNode::True).unwrap()[0]);
        bytes
    }

    #[test]
    fn from_wire_accepts_what_the_dsl_builds() {
        for f in [
            RemoteFilter::pass_all(),
            rfilter!(price < 100.0 && market.name == "ZRH"),
            rfilter!(price < 1.0).or(rfilter!(amount > 5)).negate(),
            RemoteFilter::from_wire(&not_chain_bytes(40)).unwrap(),
        ] {
            let bytes = psc_codec::to_bytes(&f).unwrap();
            assert_eq!(RemoteFilter::from_wire(&bytes), Ok(f));
        }
    }

    #[test]
    fn from_wire_refuses_hostile_filters() {
        use crate::InvalidFilter;
        // Nesting: refused by the decoder before anything recursive sees it.
        assert!(matches!(
            RemoteFilter::from_wire(&not_chain_bytes(100_000)),
            Err(InvalidFilter::Codec(
                psc_codec::CodecError::DepthLimit { .. }
            ))
        ));
        // A predicate reference `from_parts` would have panicked on; derived
        // `Deserialize` lets it through, `validate` does not.
        // (A struct's wire image is its fields in order.)
        let bytes = psc_codec::to_bytes(&(
            rfilter!(price < 1.0).predicates(),
            EvalNode::And(vec![EvalNode::Pred(0), EvalNode::Pred(7)]),
        ))
        .unwrap();
        assert!(psc_codec::from_bytes::<RemoteFilter>(&bytes).is_ok());
        assert_eq!(
            RemoteFilter::from_wire(&bytes),
            Err(InvalidFilter::PredOutOfRange {
                index: 7,
                predicates: 1
            })
        );
        // Size: wide rather than deep.
        let wide = RemoteFilter::from_parts(
            Vec::new(),
            EvalNode::Or(vec![EvalNode::True; crate::MAX_WIRE_NODES]),
        );
        assert_eq!(wide.validate(), Err(InvalidFilter::TooLarge));
        let many = RemoteFilter::conjunction(
            (0..=crate::MAX_WIRE_PREDICATES)
                .map(|i| Predicate::new("price", CmpOp::Lt, i as f64))
                .collect(),
        );
        assert_eq!(many.validate(), Err(InvalidFilter::TooLarge));
        assert!(matches!(
            RemoteFilter::from_wire(&[0xff; 4]),
            Err(InvalidFilter::Codec(_))
        ));
    }

    #[test]
    fn invocation_tree_shares_prefixes() {
        // §4.4.3: nodes represent invocations; shared accessor prefixes merge.
        let f = rfilter!(market.name == "ZRH" && market.open == true && price < 1.0);
        let tree = f.invocation_tree();
        // Nodes: market, market.name, market.open, price = 4 invocations.
        assert_eq!(tree.invocation_count(), 4);
        let root = &tree.root;
        assert_eq!(root.children.len(), 2); // market, price
        let market = root
            .children
            .iter()
            .find(|c| c.accessor == "market")
            .unwrap();
        assert_eq!(market.children.len(), 2);
    }
}

mod typed_dsl {
    use super::*;

    #[test]
    fn typed_expressions_build_equivalent_filters() {
        let price = prop::<f64>("price");
        let company = prop::<String>("company");
        let f = (price.lt(100.0) & company.contains("Telco")).into_filter();
        assert!(f.matches(&quote("Telco", 80.0, 1)));
        assert!(!f.matches(&quote("Telco", 180.0, 1)));
    }

    #[test]
    fn operators_and_methods_agree() {
        let a = || prop::<i64>("amount").gt(5);
        let b = || prop::<f64>("price").lt(10.0);
        let via_ops = (a() | b()).into_filter();
        let via_methods = a().or(b()).into_filter();
        let q = quote("X", 5.0, 1);
        assert_eq!(via_ops.matches(&q), via_methods.matches(&q));
    }

    #[test]
    fn negation_and_always() {
        let f = (!prop::<f64>("price").lt(10.0)).into_filter();
        assert!(f.matches(&quote("X", 50.0, 1)));
        assert!(Expr::always().into_filter().is_pass_all());
    }

    #[test]
    fn between_is_inclusive() {
        let f = prop::<i64>("amount").between(5, 10).into_filter();
        assert!(f.matches(&quote("X", 1.0, 5)));
        assert!(f.matches(&quote("X", 1.0, 10)));
        assert!(!f.matches(&quote("X", 1.0, 11)));
    }

    #[test]
    fn nested_under_reroots_paths() {
        let name = prop::<String>("name").nested_under(&PropPath::parse("market"));
        let f = name.eq_("ZRH").into_filter();
        let v = Value::record([("market", Value::record([("name", Value::from("ZRH"))]))]);
        assert!(f.matches(&v));
    }

    #[test]
    fn bool_and_list_helpers() {
        let v = Value::record([
            ("open", Value::from(true)),
            ("tags", Value::from(vec!["hot"])),
        ]);
        assert!(prop::<bool>("open").is_true().into_filter().matches(&v));
        assert!(!prop::<bool>("open").is_false().into_filter().matches(&v));
        assert!(prop::<Vec<String>>("tags")
            .has_element("hot")
            .into_filter()
            .matches(&v));
        assert!(prop::<i64>("missing").exists().negate().into_filter().matches(&v));
    }
}

mod restrictions {
    use super::*;
    use restrict::{Restrictions, Violation};

    #[test]
    fn conforming_filter_is_migratable() {
        let f = rfilter!(price < 100.0 && market.name == "ZRH");
        assert!(restrict::is_migratable(&f, &Restrictions::default()));
    }

    #[test]
    fn deep_paths_are_rejected() {
        let limits = Restrictions {
            max_path_depth: 2,
            ..Restrictions::default()
        };
        let f = rfilter!(a.b.c == 1);
        let violations = restrict::check(&f, &limits);
        assert!(matches!(violations[0], Violation::PathTooDeep { .. }));
    }

    #[test]
    fn too_many_predicates_rejected() {
        let limits = Restrictions {
            max_predicates: 1,
            ..Restrictions::default()
        };
        let f = rfilter!(a == 1 && b == 2);
        assert!(restrict::check(&f, &limits)
            .iter()
            .any(|v| matches!(v, Violation::TooManyPredicates { .. })));
    }

    #[test]
    fn oversized_and_structured_operands_rejected() {
        let limits = Restrictions {
            max_operand_size: 4,
            ..Restrictions::default()
        };
        let big = RemoteFilter::conjunction(vec![Predicate::new(
            "s",
            CmpOp::Eq,
            "toolongoperand",
        )]);
        assert!(restrict::check(&big, &limits)
            .iter()
            .any(|v| matches!(v, Violation::OperandTooLarge { .. })));

        let structured = RemoteFilter::conjunction(vec![Predicate::new(
            "xs",
            CmpOp::Contains,
            Value::List(vec![Value::Int(1)]),
        )]);
        assert!(restrict::check(&structured, &Restrictions::default())
            .iter()
            .any(|v| matches!(v, Violation::StructuredOperand { .. })));
        let permissive = Restrictions {
            allow_structured_operands: true,
            ..Restrictions::default()
        };
        assert!(restrict::is_migratable(&structured, &permissive));
    }
}

mod index {
    use super::*;

    #[test]
    fn matching_and_removal() {
        let mut index = FilterIndex::new();
        let telco = index.insert(rfilter!(company contains "Telco"));
        let cheap = index.insert(rfilter!(price < 50.0));
        let all = index.insert(RemoteFilter::pass_all());

        let q = quote("Telco", 80.0, 1);
        assert_eq!(index.matching(&q), vec![telco, all]);

        index.remove(telco).unwrap();
        assert_eq!(index.matching(&q), vec![all]);
        assert_eq!(index.len(), 2);
        assert!(index.remove(telco).is_none());

        let q2 = quote("Banco", 10.0, 1);
        assert_eq!(index.matching(&q2), vec![cheap, all]);
    }

    #[test]
    fn duplicate_predicates_are_shared() {
        let mut index = FilterIndex::new();
        for _ in 0..10 {
            index.insert(rfilter!(price < 100.0 && company contains "Telco"));
        }
        let stats = index.stats();
        assert_eq!(stats.filters, 10);
        assert_eq!(stats.total_predicates, 20);
        assert_eq!(stats.unique_predicates, 2);
        assert_eq!(stats.paths, 2);
        // All ten match at once.
        assert_eq!(index.matching(&quote("Telco", 80.0, 1)).len(), 10);
    }

    #[test]
    fn threshold_boundaries_are_exact() {
        let mut index = FilterIndex::new();
        let lt = index.insert(rfilter!(price < 100.0));
        let le = index.insert(rfilter!(price <= 100.0));
        let gt = index.insert(rfilter!(price > 100.0));
        let ge = index.insert(rfilter!(price >= 100.0));

        let at = index.matching(&quote("X", 100.0, 1));
        assert_eq!(at, {
            let mut v = vec![le, ge];
            v.sort();
            v
        });
        let below = index.matching(&quote("X", 99.0, 1));
        assert_eq!(below, vec![lt, le]);
        let above = index.matching(&quote("X", 101.0, 1));
        assert_eq!(above, vec![gt, ge]);
    }

    #[test]
    fn huge_integers_do_not_lose_precision() {
        // 2^63 - 1 is not exactly representable as f64; ensure the index does
        // not batch it into lossy comparisons.
        let big = i64::MAX;
        let mut index = FilterIndex::new();
        let f = index.insert(RemoteFilter::conjunction(vec![Predicate::new(
            "n",
            CmpOp::Lt,
            big,
        )]));
        let just_below = Value::record([("n", Value::Int(big - 1))]);
        let at = Value::record([("n", Value::Int(big))]);
        assert_eq!(index.matching(&just_below), vec![f]);
        assert!(index.matching(&at).is_empty());
        assert_eq!(index.naive_matching(&just_below), vec![f]);
        assert!(index.naive_matching(&at).is_empty());
    }

    #[test]
    fn general_trees_are_supported() {
        let mut index = FilterIndex::new();
        let f = index.insert(rfilter!(price < 10.0).or(rfilter!(amount > 5)));
        assert_eq!(index.matching(&quote("X", 5.0, 1)), vec![f]);
        assert_eq!(index.matching(&quote("X", 50.0, 6)), vec![f]);
        assert!(index.matching(&quote("X", 50.0, 1)).is_empty());
    }

    #[test]
    fn nan_events_match_nothing_numeric() {
        let mut index = FilterIndex::new();
        index.insert(rfilter!(price < 10.0));
        index.insert(rfilter!(price >= 10.0));
        let nan_quote = quote("X", f64::NAN, 1);
        assert!(index.matching(&nan_quote).is_empty());
        assert_eq!(
            index.naive_matching(&nan_quote),
            index.matching(&nan_quote)
        );
    }

    #[test]
    fn eq_coercion_matches_canonicalized_numerics() {
        let mut index = FilterIndex::new();
        let f = index.insert(rfilter!(amount == 10));
        // Float and unsigned representations of 10 must hit the same key.
        assert_eq!(
            index.matching(&Value::record([("amount", Value::Float(10.0))])),
            vec![f]
        );
        assert_eq!(
            index.matching(&Value::record([("amount", Value::UInt(10))])),
            vec![f]
        );
        assert!(index
            .matching(&Value::record([("amount", Value::Float(10.5))]))
            .is_empty());
    }

    #[test]
    fn slots_are_reused_without_ghost_matches() {
        let mut index = FilterIndex::new();
        let a = index.insert(rfilter!(price < 10.0));
        index.remove(a).unwrap();
        let b = index.insert(rfilter!(price > 90.0));
        assert_ne!(a.as_u64(), b.as_u64());
        assert_eq!(index.matching(&quote("X", 95.0, 1)), vec![b]);
        assert!(index.matching(&quote("X", 5.0, 1)).is_empty());
    }

    #[test]
    fn identical_trees_share_one_dag() {
        // Ten subscriptions with the same disjunction: the hash-consed DAG
        // stores the tree once, so the per-obvent evaluation is memoized
        // across all ten.
        let mut index = FilterIndex::new();
        let ids: Vec<_> = (0..10)
            .map(|_| index.insert(rfilter!(price < 10.0).or(rfilter!(amount > 5))))
            .collect();
        // Or(pred, pred): two leaf nodes + one Or node, regardless of count.
        assert_eq!(index.stats().shared_nodes, 3);
        assert_eq!(index.matching(&quote("X", 5.0, 1)), ids);
        assert_eq!(
            index.matching(&quote("X", 5.0, 1)),
            index.naive_matching(&quote("X", 5.0, 1))
        );
        // Removing all filters drains the DAG.
        for id in ids {
            index.remove(id).unwrap();
        }
        assert_eq!(index.stats().shared_nodes, 0);
    }

    #[test]
    fn commuted_conjuncts_intern_to_the_same_node() {
        // `a && b` vs `b && a` inside a disjunction: normalization sorts
        // commutative children, so both orderings share one And node.
        let a = Predicate::new("price", CmpOp::Lt, 10.0);
        let b = Predicate::new("amount", CmpOp::Gt, 5u32);
        let lhs = RemoteFilter::conjunction(vec![a.clone(), b.clone()])
            .or(rfilter!(company == "X"));
        let rhs = RemoteFilter::conjunction(vec![b, a]).or(rfilter!(company == "X"));
        let mut index = FilterIndex::new();
        let i1 = index.insert(lhs);
        let i2 = index.insert(rhs);
        let nodes_both = index.stats().shared_nodes;
        index.remove(i2).unwrap();
        // Removing the commuted copy frees no DAG nodes beyond refcounts:
        // both filters interned to the identical structure.
        assert_eq!(index.stats().shared_nodes, nodes_both);
        for event in [quote("X", 5.0, 6), quote("Y", 5.0, 6), quote("Y", 50.0, 1)] {
            assert_eq!(index.matching(&event), index.naive_matching(&event));
        }
        index.remove(i1).unwrap();
        assert_eq!(index.stats().shared_nodes, 0);
    }

    #[test]
    fn matching_takes_shared_reference() {
        // The publish hot path matches through `&FilterIndex`; the scratch
        // state is interior. (Compile-time guarantee, exercised here.)
        let mut index = FilterIndex::new();
        let id = index.insert(rfilter!(price < 10.0));
        let shared: &FilterIndex = &index;
        assert_eq!(shared.matching(&quote("X", 5.0, 1)), vec![id]);
        assert_eq!(shared.matching(&quote("X", 50.0, 1)), Vec::new());
    }

    fn arb_operand() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-100i64..100).prop_map(Value::Int),
            (0u64..100).prop_map(Value::UInt),
            (-100.0f64..100.0).prop_map(Value::Float),
            "[a-c]{0,3}".prop_map(Value::Str),
            any::<bool>().prop_map(Value::Bool),
        ]
    }

    /// Adversarial operands for the indexed≡naive battery: NaN (hashable
    /// but incomparable), empty strings, signed zero, and the integer
    /// boundaries where `f64` conversion goes lossy — each one a known way
    /// to knock a predicate off the batched fast path or flip a bucket
    /// comparison — plus lists and records nested two deep, whose keys,
    /// lengths and nesting the wire reader walks. Ordinary operands appear
    /// as often as edge cases and nested values together.
    fn arb_edge_operand() -> impl Strategy<Value = Value> {
        let edges = proptest::sample::select(vec![
            Value::Float(f64::NAN),
            Value::Str(String::new()),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX - 1),
            Value::UInt(u64::MAX),
            Value::Int(0),
            Value::UInt(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(1e300),
            Value::Unit,
            Value::List(vec![Value::Int(1), Value::Str("a".into())]),
        ]);
        let list = |element: BoxedStrategy<Value>| {
            proptest::collection::vec(element, 0..3).prop_map(Value::List)
        };
        let record = |element: BoxedStrategy<Value>| {
            proptest::collection::btree_map("[a-c]{0,2}", element, 0..3).prop_map(Value::Record)
        };
        let shallow =
            || prop_oneof![list(arb_operand().boxed()), record(arb_operand().boxed())].boxed();
        let nested = prop_oneof![list(shallow()), record(shallow()), shallow()];
        prop_oneof![arb_operand(), arb_operand(), edges, nested]
    }

    fn arb_pred_with(
        operand: impl Strategy<Value = Value>,
    ) -> impl Strategy<Value = Predicate> {
        let path = prop_oneof![
            Just(PropPath::parse("p")),
            Just(PropPath::parse("q")),
            Just(PropPath::parse("r.s")),
        ];
        let op = prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
            Just(CmpOp::Contains),
            Just(CmpOp::StartsWith),
            Just(CmpOp::EndsWith),
            Just(CmpOp::Exists),
        ];
        (path, op, operand).prop_map(|(path, op, operand)| Predicate {
            path,
            op,
            operand,
        })
    }

    fn arb_pred() -> impl Strategy<Value = Predicate> {
        arb_pred_with(arb_operand())
    }

    fn arb_filter() -> impl Strategy<Value = RemoteFilter> {
        prop_oneof![
            proptest::collection::vec(arb_pred(), 0..4).prop_map(RemoteFilter::conjunction),
            (
                proptest::collection::vec(arb_pred(), 1..3),
                proptest::collection::vec(arb_pred(), 1..3)
            )
                .prop_map(|(a, b)| {
                    RemoteFilter::conjunction(a).or(RemoteFilter::conjunction(b))
                }),
            proptest::collection::vec(arb_pred(), 1..3)
                .prop_map(|p| RemoteFilter::conjunction(p).negate()),
        ]
    }

    fn arb_event() -> impl Strategy<Value = Value> {
        (arb_operand(), arb_operand(), arb_operand()).prop_map(|(p, q, s)| {
            Value::record([
                ("p", p),
                ("q", q),
                ("r", Value::record([("s", s)])),
            ])
        })
    }

    /// An edge operand three times out of four, absent otherwise.
    fn arb_maybe_edge() -> impl Strategy<Value = Option<Value>> {
        prop_oneof![
            Just(None::<Value>),
            arb_edge_operand().prop_map(Some),
            arb_edge_operand().prop_map(Some),
            arb_edge_operand().prop_map(Some),
        ]
    }

    /// Events carrying edge-case values, with each property optionally
    /// absent so `Exists` and missing-path semantics get exercised too.
    fn arb_edge_event() -> impl Strategy<Value = Value> {
        (arb_maybe_edge(), arb_maybe_edge(), arb_maybe_edge())
            .prop_map(|(p, q, s)| {
                let mut fields: Vec<(&str, Value)> = Vec::new();
                if let Some(p) = p {
                    fields.push(("p", p));
                }
                if let Some(q) = q {
                    fields.push(("q", q));
                }
                if let Some(s) = s {
                    fields.push(("r", Value::record([("s", s)])));
                }
                Value::record(fields)
            })
    }

    /// General filter shapes over edge predicates: conjunctions,
    /// disjunctions of conjunctions, and negations — the latter land on the
    /// always-evaluated residual path of the counting engine.
    fn arb_edge_filter() -> impl Strategy<Value = RemoteFilter> {
        let pred = || arb_pred_with(arb_edge_operand());
        prop_oneof![
            proptest::collection::vec(pred(), 0..4).prop_map(RemoteFilter::conjunction),
            (
                proptest::collection::vec(pred(), 1..3),
                proptest::collection::vec(pred(), 1..3)
            )
                .prop_map(|(a, b)| {
                    RemoteFilter::conjunction(a).or(RemoteFilter::conjunction(b))
                }),
            proptest::collection::vec(pred(), 1..3)
                .prop_map(|p| RemoteFilter::conjunction(p).negate()),
        ]
    }

    /// `WireFilter::parse`, every predicate then decoded from its span.
    fn parsed(bytes: &[u8]) -> Result<RemoteFilter, crate::InvalidFilter> {
        let filter = WireFilter::parse(bytes)?;
        let predicates = filter
            .predicate_bytes()
            .iter()
            .map(|span| WireFilter::decode_predicate(span).unwrap())
            .collect();
        Ok(RemoteFilter::from_parts_unchecked(
            predicates,
            filter.into_eval(),
        ))
    }

    /// A filter whose tree is `depth` nested `Not`s over one `Pred(0)` and
    /// whose one predicate's operand is a record nesting lists `nest` deep:
    /// both sides of the decoder's depth bound.
    fn deep_filter_bytes(depth: usize, nest: usize) -> Vec<u8> {
        let mut operand = Value::Int(1);
        for _ in 0..nest {
            operand = Value::List(vec![Value::record([("k", operand)])]);
        }
        let filter = RemoteFilter::conjunction(vec![Predicate::new("p", CmpOp::Eq, operand)]);
        let mut bytes = psc_codec::to_bytes(filter.predicates()).unwrap();
        let not_tag = psc_codec::to_bytes(&EvalNode::Not(Box::new(EvalNode::True))).unwrap()[0];
        bytes.extend(std::iter::repeat_n(not_tag, depth));
        bytes.extend(psc_codec::to_bytes(&EvalNode::Pred(0)).unwrap());
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// `WireFilter::parse` accepts and refuses exactly what
        /// `RemoteFilter::from_wire` (the codec's serde decode plus
        /// `validate`) does, with the same error, on encoded filters and on
        /// the same bytes truncated, overwritten or grown by one byte; what
        /// it accepts decodes to the same filter.
        #[test]
        fn wire_parse_agrees_with_the_codec(
            filter in arb_edge_filter(),
            mode in 0u8..4,
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let mut bytes = psc_codec::to_bytes(&filter).unwrap();
            match mode {
                0 => {}
                1 => bytes.truncate(at % bytes.len()),
                2 => {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
                _ => bytes.insert(at % (bytes.len() + 1), byte),
            }
            let decoded = parsed(&bytes);
            prop_assert_eq!(&decoded, &RemoteFilter::from_wire(&bytes));
            if mode == 0 {
                prop_assert_eq!(decoded, Ok(filter));
            }
        }

        /// Around the depth bound, in the tree and in an operand.
        #[test]
        fn wire_parse_agrees_at_the_depth_bound(depth in 118usize..132, nest in 0usize..64) {
            let bytes = deep_filter_bytes(depth, nest);
            prop_assert_eq!(parsed(&bytes), RemoteFilter::from_wire(&bytes));
        }
    }

    /// The reader's variant lists are the codec's: each variant encodes as
    /// its place in the list, and the first index past the list is one the
    /// codec refuses too, with the reader's error.
    #[test]
    fn wire_tags_follow_the_codec() {
        use crate::wire::{cmp_op_index, EvalTag, ValueTag, CMP_OPS};
        fn refused<T: serde::de::DeserializeOwned + std::fmt::Debug>(name: &str, count: usize) {
            assert_eq!(
                psc_codec::from_bytes::<T>(&[count as u8]).unwrap_err(),
                psc_codec::CodecError::Message(format!(
                    "invalid variant index {count} for enum {name}"
                )),
            );
        }
        for (i, op) in CMP_OPS.iter().enumerate() {
            assert_eq!(cmp_op_index(*op), i);
            assert_eq!(psc_codec::to_bytes(op).unwrap(), [i as u8], "{op:?}");
        }
        refused::<CmpOp>("CmpOp", CMP_OPS.len());

        let values = [
            Value::Unit,
            Value::Bool(true),
            Value::Int(1),
            Value::UInt(1),
            Value::Float(1.0),
            Value::Str("s".into()),
            Value::List(Vec::new()),
            Value::record([("k", Value::Unit)]),
        ];
        assert_eq!(values.len(), ValueTag::ALL.len());
        for (i, (value, tag)) in values.iter().zip(ValueTag::ALL).enumerate() {
            assert_eq!(ValueTag::of(value), tag);
            assert_eq!(psc_codec::to_bytes(value).unwrap()[0], i as u8, "{value:?}");
        }
        refused::<Value>("Value", ValueTag::ALL.len());

        let nodes = [
            EvalNode::True,
            EvalNode::False,
            EvalNode::Pred(0),
            EvalNode::And(Vec::new()),
            EvalNode::Or(Vec::new()),
            EvalNode::Not(Box::new(EvalNode::True)),
        ];
        assert_eq!(nodes.len(), EvalTag::ALL.len());
        for (i, (node, tag)) in nodes.iter().zip(EvalTag::ALL).enumerate() {
            assert_eq!(EvalTag::of(node), tag);
            assert_eq!(psc_codec::to_bytes(node).unwrap()[0], i as u8, "{node:?}");
        }
        refused::<EvalNode>("EvalNode", EvalTag::ALL.len());
    }

    /// Wraps a source, hiding its enumeration capability: forces the index
    /// down the per-path fallback so both phase-1 strategies are compared.
    struct FetchOnly<'a>(&'a Value);

    impl PropertySource for FetchOnly<'_> {
        fn property(&self, path: &PropPath) -> Option<Value> {
            self.0.property(path)
        }
    }

    /// The ids of the `live` filters that match `event`, each judged by
    /// its own predicates: a reference that shares no table with the
    /// index, so an interning fault that `naive_matching` would repeat
    /// (it evaluates the index's own predicate table) still shows.
    fn reference(
        live: &[(crate::FilterId, RemoteFilter)],
        event: &dyn PropertySource,
    ) -> Vec<crate::FilterId> {
        let mut ids: Vec<_> = live
            .iter()
            .filter(|(_, filter)| filter.matches(event))
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids
    }

    proptest! {
        /// The factored index, the naive per-filter evaluation and the
        /// filters' own evaluation must be extensionally equal — the
        /// factoring is a pure optimization.
        #[test]
        fn prop_factored_equals_naive(
            filters in proptest::collection::vec(arb_filter(), 0..12),
            events in proptest::collection::vec(arb_event(), 1..8),
        ) {
            let mut index = FilterIndex::new();
            let live: Vec<_> = filters.into_iter().map(|f| (index.insert(f.clone()), f)).collect();
            for event in &events {
                let fast = index.matching(event);
                prop_assert_eq!(&fast, &index.naive_matching(event));
                prop_assert_eq!(&fast, &reference(&live, event));
            }
        }

        /// Insert/remove churn keeps the index consistent with the oracles.
        #[test]
        fn prop_consistent_under_churn(
            filters in proptest::collection::vec(arb_filter(), 4..10),
            remove_mask in proptest::collection::vec(any::<bool>(), 4..10),
            event in arb_event(),
        ) {
            let mut index = FilterIndex::new();
            let mut live: Vec<_> = filters.into_iter().map(|f| (index.insert(f.clone()), f)).collect();
            let mut mask = remove_mask.iter();
            live.retain(|(id, _)| {
                let remove = mask.next().copied().unwrap_or(false);
                if remove {
                    index.remove(*id);
                }
                !remove
            });
            let fast = index.matching(&event);
            prop_assert_eq!(&fast, &index.naive_matching(&event));
            prop_assert_eq!(&fast, &reference(&live, &event));
        }

        /// The edge-value battery: NaN, empty strings, signed zero,
        /// integer boundaries past f64 precision, Unit/List operands, and
        /// non-indexable ops (`!=`, string suffix tests) that fall to the
        /// residual bucket — the counting engine, the per-path fallback
        /// (non-enumerable source), the naive oracle and the filters' own
        /// evaluation must agree on all of it.
        #[test]
        fn prop_indexed_equals_naive_on_edge_values(
            filters in proptest::collection::vec(arb_edge_filter(), 0..12),
            events in proptest::collection::vec(arb_edge_event(), 1..8),
        ) {
            let mut index = FilterIndex::new();
            let live: Vec<_> = filters.into_iter().map(|f| (index.insert(f.clone()), f)).collect();
            for event in &events {
                let fast = index.matching(event);
                let fallback = index.matching(&FetchOnly(event));
                let slow = index.naive_matching(event);
                let own = reference(&live, event);
                prop_assert_eq!(&fast, &own, "enumerated probe diverged from the filters");
                prop_assert_eq!(&fallback, &own, "per-path fallback diverged from the filters");
                prop_assert_eq!(&slow, &own, "naive evaluation diverged from the filters");
            }
            prop_assert_eq!(index.check_consistency(), Ok(()));
        }

        /// Random interleavings of insert / remove / matching leave the
        /// posting lists, refcounts and bucket placement audit-clean after
        /// every step, and the surviving index statistically identical to
        /// one rebuilt from scratch from the live filters. Every survivor
        /// then comes back out exactly as it went in.
        #[test]
        fn prop_interleaved_churn_matches_a_rebuilt_index(
            script in proptest::collection::vec(
                prop_oneof![
                    arb_edge_filter().prop_map(ChurnStep::Insert),
                    arb_edge_filter().prop_map(ChurnStep::Insert),
                    arb_edge_filter().prop_map(ChurnStep::Insert),
                    any::<usize>().prop_map(ChurnStep::Remove),
                    any::<usize>().prop_map(ChurnStep::Remove),
                    arb_edge_event().prop_map(ChurnStep::Match),
                    arb_edge_event().prop_map(ChurnStep::Match),
                ],
                1..24,
            ),
        ) {
            let mut index = FilterIndex::new();
            let mut live: Vec<(crate::FilterId, RemoteFilter)> = Vec::new();
            for step in script {
                match step {
                    ChurnStep::Insert(filter) => {
                        // Every other filter arrives as bytes, so the two
                        // entrances share predicates both ways.
                        let id = if live.len().is_multiple_of(2) {
                            index.insert(filter.clone())
                        } else {
                            let bytes = psc_codec::to_bytes(&filter).unwrap();
                            index.insert_wire(WireFilter::parse(&bytes).unwrap()).unwrap()
                        };
                        live.push((id, filter));
                    }
                    ChurnStep::Remove(pick) => {
                        if !live.is_empty() {
                            let (id, filter) = live.swap_remove(pick % live.len());
                            let removed = index.remove(id);
                            prop_assert_eq!(removed, Some(filter));
                        }
                    }
                    ChurnStep::Match(event) => {
                        let fast = index.matching(&event);
                        prop_assert_eq!(&fast, &index.naive_matching(&event));
                        prop_assert_eq!(&fast, &reference(&live, &event));
                    }
                }
                prop_assert_eq!(index.check_consistency(), Ok(()));
            }
            // A pristine index built from the survivors must agree on every
            // slot-independent statistic — churn may not leak predicates,
            // paths, DAG nodes, or bucket entries.
            let mut rebuilt = FilterIndex::new();
            for (_, filter) in &live {
                rebuilt.insert(filter.clone());
            }
            prop_assert_eq!(index.stats(), rebuilt.stats());
            let event = Value::record([("p", Value::Int(1))]);
            prop_assert_eq!(
                index.matching(&event).len(),
                rebuilt.matching(&event).len()
            );
            for (id, filter) in live {
                prop_assert_eq!(index.remove(id), Some(filter));
            }
            prop_assert_eq!(index.stats(), FilterIndex::new().stats());
            prop_assert_eq!(index.check_consistency(), Ok(()));
        }
    }

    #[derive(Debug, Clone)]
    enum ChurnStep {
        Insert(RemoteFilter),
        Remove(usize),
        Match(Value),
    }

    #[test]
    fn non_indexable_predicates_ride_the_residual_bucket() {
        let mut index = FilterIndex::new();
        let ne = index.insert(RemoteFilter::conjunction(vec![Predicate::new(
            "p",
            CmpOp::Ne,
            10,
        )]));
        let ends = index.insert(RemoteFilter::conjunction(vec![Predicate::new(
            "q",
            CmpOp::EndsWith,
            "co",
        )]));
        let stats = index.stats();
        assert_eq!(stats.residual_preds, 2, "Ne and EndsWith are not batchable");
        assert_eq!(stats.indexed_preds, 0);
        for event in [
            Value::record([("p", Value::Int(3)), ("q", Value::from("Telco"))]),
            Value::record([("p", Value::Int(10)), ("q", Value::from("Banco"))]),
            Value::record([("p", Value::from("not a number"))]),
        ] {
            assert_eq!(index.matching(&event), index.naive_matching(&event));
        }
        assert_eq!(
            index.matching(&Value::record([
                ("p", Value::Int(3)),
                ("q", Value::from("Telco")),
            ])),
            vec![ne, ends]
        );
        index.check_consistency().unwrap();
    }

    #[test]
    fn negations_are_evaluated_residually_and_disjunctions_trigger_by_counting() {
        let mut index = FilterIndex::new();
        // ¬(p < 10): satisfiable with zero true predicates → residual.
        let negated = index.insert(rfilter!(p < 10.0).negate());
        // (p < 10 && q > 5) || (p > 90 && q < 2): any satisfying assignment
        // needs ≥ 2 true predicates → counting-triggered.
        let disjunction = index
            .insert(rfilter!(p < 10.0 && q > 5).or(rfilter!(p > 90.0 && q < 2)));
        let stats = index.stats();
        assert_eq!(stats.residual_filters, 1);
        assert_eq!(stats.counting_filters, 1);

        let no_props = Value::record([("x", Value::Int(0))]);
        assert_eq!(index.matching(&no_props), vec![negated]);
        let left_arm = Value::record([("p", Value::Float(5.0)), ("q", Value::Int(9))]);
        assert_eq!(index.matching(&left_arm), vec![disjunction]);
        let one_pred_only = Value::record([("p", Value::Float(5.0)), ("q", Value::Int(3))]);
        assert_eq!(index.matching(&one_pred_only), Vec::new());
        for event in [&no_props, &left_arm, &one_pred_only] {
            assert_eq!(index.matching(event), index.naive_matching(event));
        }
        index.check_consistency().unwrap();
    }

    #[test]
    fn constant_false_trees_are_never_evaluated_but_stay_accounted() {
        // `Or([])` interns to the constant-false node: the filter can never
        // match, and the counting engine knows it without evaluating.
        let mut index = FilterIndex::new();
        let never = index.insert(RemoteFilter::from_parts(vec![], EvalNode::Or(vec![])));
        let live = index.insert(rfilter!(p < 10.0));
        let event = Value::record([("p", Value::Float(5.0))]);
        assert_eq!(index.matching(&event), vec![live]);
        assert_eq!(index.naive_matching(&event), vec![live]);
        index.check_consistency().unwrap();
        index.remove(never).unwrap();
        index.check_consistency().unwrap();
        assert_eq!(index.stats().shared_nodes, 0);
    }

    /// Enumerates exactly like the wrapped event, but counts the
    /// `property` fetches the index makes outside phase 1.
    struct CountingFetches<'a> {
        event: &'a Value,
        fetches: std::cell::Cell<usize>,
    }

    impl PropertySource for CountingFetches<'_> {
        fn property(&self, path: &PropPath) -> Option<Value> {
            self.fetches.set(self.fetches.get() + 1);
            self.event.property(path)
        }

        fn visit_properties(&self, visit: &mut dyn FnMut(&[String], &Value)) -> bool {
            self.event.visit_properties(visit)
        }
    }

    #[test]
    fn gated_candidates_fetch_each_shared_range_predicate_once_per_event() {
        // E1's overlapping population: `price < t && company == c` with t on
        // a coarse grid of 19 thresholds. Every filter is gated on its
        // company equality, so only those are probed; the range predicates
        // are checked per candidate from memoized truths.
        const COMPANIES: [&str; 4] = ["Telco", "Banco", "Aero", "Hydro"];
        let mut index = FilterIndex::new();
        for i in 0..1_000usize {
            index.insert(RemoteFilter::conjunction(vec![
                Predicate::new("price", CmpOp::Lt, ((i * 7) % 19 + 1) as f64 * 10.0),
                Predicate::new("company", CmpOp::Eq, COMPANIES[i % COMPANIES.len()]),
            ]));
        }
        assert_eq!(index.stats().indexed_preds, COMPANIES.len());
        for price in [5.0, 55.0, 150.0, 250.0] {
            for company in COMPANIES {
                let event = quote(company, price, 1);
                let source = CountingFetches {
                    event: &event,
                    fetches: std::cell::Cell::new(0),
                };
                assert_eq!(index.matching(&source), index.naive_matching(&event));
                // 250 candidates share 19 range predicates.
                assert!(
                    source.fetches.get() <= 19,
                    "{} fetches for one `{company}` event",
                    source.fetches.get()
                );
            }
        }
    }

    #[test]
    fn residual_trees_probe_nothing() {
        // Trees satisfiable with no true predicate are evaluated on every
        // event; their leaves come from the memoized evaluator, so nothing
        // enters a probe bucket for them.
        let mut index = FilterIndex::new();
        let not_above_1 = index.insert(rfilter!(price > 1.0).negate());
        let not_cheap_telco = index.insert(rfilter!(price < 50.0 && company == "Telco").negate());
        let stats = index.stats();
        assert_eq!(stats.residual_filters, 2);
        assert_eq!((stats.indexed_preds, stats.residual_preds), (0, 0));
        assert_eq!(index.matching(&quote("Telco", 0.5, 1)), vec![not_above_1]);
        assert_eq!(
            index.matching(&quote("Telco", 80.0, 1)),
            vec![not_cheap_telco]
        );
        assert_eq!(
            index.matching(&quote("Banco", 0.5, 1)),
            vec![not_above_1, not_cheap_telco]
        );

        // A counted filter posting the same predicate files it into its
        // bucket; removing that filter takes it out again.
        let counted = index.insert(rfilter!(price > 1.0));
        assert_eq!(index.stats().indexed_preds, 1);
        let event = quote("Telco", 80.0, 1);
        assert_eq!(index.matching(&event), index.naive_matching(&event));
        index.check_consistency().unwrap();
        index.remove(counted).unwrap();
        assert_eq!(index.stats().indexed_preds, 0);
        index.check_consistency().unwrap();
    }

    #[test]
    fn enumerating_and_fetch_only_sources_probe_identically() {
        let mut index = FilterIndex::new();
        for f in [
            rfilter!(p < 10.0),
            rfilter!(q == "x"),
            rfilter!(r.s >= 5),
            rfilter!(p < 10.0).negate(),
            RemoteFilter::pass_all(),
        ] {
            index.insert(f);
        }
        let event = Value::record([
            ("p", Value::Float(3.0)),
            ("q", Value::from("x")),
            ("r", Value::record([("s", Value::Int(7))])),
            ("unindexed", Value::from("ignored")),
        ]);
        assert_eq!(index.matching(&event), index.matching(&FetchOnly(&event)));
        assert_eq!(index.matching(&event), index.naive_matching(&event));
    }
}

mod mechanisms {
    use super::*;

    #[test]
    fn indexed_matches_naive_before_and_after_removal() {
        let filters = [
            rfilter!(price < 100.0 && company contains "Telco"),
            rfilter!(price >= 50.0),
            rfilter!(amount == 10),
            rfilter!(price < 10.0).or(rfilter!(amount > 5)),
            RemoteFilter::pass_all(),
        ];
        let events = [
            quote("Telco", 80.0, 10),
            quote("Banco", 5.0, 1),
            quote("Telco", 200.0, 6),
        ];
        let mut index = FilterIndex::new();
        let ids: Vec<_> = filters.iter().map(|f| index.insert(f.clone())).collect();
        for event in &events {
            assert_eq!(index.matching(event), index.naive_matching(event));
        }
        index.remove(ids[0]);
        for event in &events {
            assert_eq!(index.matching(event), index.naive_matching(event), "after removal");
        }
    }

    #[test]
    fn equal_predicates_are_stored_once() {
        let mut index = FilterIndex::new();
        for _ in 0..10 {
            index.insert(rfilter!(price < 100.0));
        }
        let stats = index.stats();
        assert_eq!(stats.total_predicates, 10);
        assert!(stats.unique_predicates < stats.total_predicates);
        assert_eq!(stats.unique_predicates, 1);
    }
}
