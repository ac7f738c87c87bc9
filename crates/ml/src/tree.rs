//! Shared decision-tree representation, prediction, and rule extraction.

use crate::dataset::{Dataset, Value};
use serde::{Deserialize, Serialize};

/// Which induction method built a tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeMethod {
    /// Classification and Regression Trees (binary, Gini).
    Cart,
    /// Chi-squared Automatic Interaction Detector (multiway, χ²).
    Chaid,
}

impl std::fmt::Display for TreeMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TreeMethod::Cart => "CART",
            TreeMethod::Chaid => "CHAID",
        })
    }
}

/// Split predicate at an internal node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SplitRule {
    /// Continuous: child 0 if `value ≤ threshold`, else child 1.
    Threshold {
        /// Split threshold.
        threshold: f64,
    },
    /// Multiway over value intervals: child `i` serves values in
    /// `(edges[i-1], edges[i]]`; values ≤ `edges[0]` go to child 0 and
    /// values > last edge go to the final child. Produced by CHAID for
    /// continuous predictors after category merging.
    Intervals {
        /// Ascending inner edges; `len = children - 1`.
        edges: Vec<f64>,
    },
    /// Categorical: child `i` serves category ids in `groups[i]`.
    Groups {
        /// Category groupings (disjoint).
        groups: Vec<Vec<u32>>,
    },
}

/// A tree node.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node predicting `class`; `counts` are training class
    /// counts at the leaf.
    Leaf {
        /// Predicted class id.
        class: u32,
        /// Training class distribution at this leaf.
        counts: Vec<u32>,
    },
    /// Internal node splitting on `feature`.
    Split {
        /// Feature index.
        feature: usize,
        /// Split predicate.
        rule: SplitRule,
        /// Children, in predicate order.
        children: Vec<Node>,
        /// Majority class at this node (fallback for unmatched values).
        majority: u32,
    },
}

/// A trained decision tree.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Induction method.
    pub method: TreeMethod,
    /// Feature names (for rule rendering).
    pub feature_names: Vec<String>,
    /// Class names.
    pub classes: Vec<String>,
    /// Root node.
    pub root: Node,
}

impl DecisionTree {
    /// Predict the class id for a row of values.
    pub fn predict(&self, values: &[Value]) -> u32 {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class, .. } => return *class,
                Node::Split {
                    feature,
                    rule,
                    children,
                    majority,
                } => {
                    let Some(v) = values.get(*feature) else {
                        return *majority;
                    };
                    let child = match rule {
                        SplitRule::Threshold { threshold } => {
                            usize::from(v.as_f64() > *threshold)
                        }
                        SplitRule::Intervals { edges } => {
                            let x = v.as_f64();
                            edges.iter().take_while(|&&e| x > e).count()
                        }
                        SplitRule::Groups { groups } => {
                            let cat = match v {
                                Value::Cat(c) => *c,
                                Value::Num(x) => *x as u32,
                            };
                            match groups.iter().position(|g| g.contains(&cat)) {
                                Some(i) => i,
                                None => return *majority,
                            }
                        }
                    };
                    match children.get(child) {
                        Some(c) => node = c,
                        None => return *majority,
                    }
                }
            }
        }
    }

    /// Predict a whole dataset, returning class ids.
    pub fn predict_all(&self, data: &Dataset) -> Vec<u32> {
        data.rows.iter().map(|r| self.predict(&r.values)).collect()
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => children.iter().map(walk).sum(),
            }
        }
        walk(&self.root)
    }

    /// Maximum depth (leaf-only tree = 1).
    pub fn depth(&self) -> usize {
        fn walk(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Split { children, .. } => {
                    1 + children.iter().map(walk).max().unwrap_or(0)
                }
            }
        }
        walk(&self.root)
    }

    /// Render the tree as human-readable IF/THEN rules — the "rules"
    /// Figure 7's inference engine consumes.
    pub fn rules(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut path: Vec<String> = Vec::new();
        self.walk_rules(&self.root, &mut path, &mut out);
        out
    }

    fn walk_rules(&self, node: &Node, path: &mut Vec<String>, out: &mut Vec<String>) {
        match node {
            Node::Leaf { class, counts } => {
                let cond = if path.is_empty() {
                    "TRUE".to_owned()
                } else {
                    path.join(" AND ")
                };
                let support: u32 = counts.iter().sum();
                out.push(format!(
                    "IF {cond} THEN {} (support {support})",
                    self.classes
                        .get(*class as usize)
                        .map(String::as_str)
                        .unwrap_or("?")
                ));
            }
            Node::Split {
                feature,
                rule,
                children,
                ..
            } => {
                let name = self
                    .feature_names
                    .get(*feature)
                    .map(String::as_str)
                    .unwrap_or("?");
                for (i, child) in children.iter().enumerate() {
                    let cond = match rule {
                        SplitRule::Threshold { threshold } => {
                            if i == 0 {
                                format!("{name} <= {threshold:.4}")
                            } else {
                                format!("{name} > {threshold:.4}")
                            }
                        }
                        SplitRule::Intervals { edges } => {
                            if i == 0 {
                                format!("{name} <= {:.4}", edges[0])
                            } else if i == edges.len() {
                                format!("{name} > {:.4}", edges[i - 1])
                            } else {
                                format!(
                                    "{:.4} < {name} <= {:.4}",
                                    edges[i - 1],
                                    edges[i]
                                )
                            }
                        }
                        SplitRule::Groups { groups } => {
                            format!("{name} in {:?}", groups[i])
                        }
                    };
                    path.push(cond);
                    self.walk_rules(child, path, out);
                    path.pop();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> DecisionTree {
        DecisionTree {
            method: TreeMethod::Cart,
            feature_names: vec!["size".into(), "algo".into()],
            classes: vec!["A".into(), "B".into(), "C".into()],
            root: Node::Split {
                feature: 0,
                rule: SplitRule::Threshold { threshold: 50.0 },
                majority: 0,
                children: vec![
                    Node::Leaf {
                        class: 1,
                        counts: vec![1, 5, 0],
                    },
                    Node::Split {
                        feature: 1,
                        rule: SplitRule::Groups {
                            groups: vec![vec![0, 2], vec![1]],
                        },
                        majority: 2,
                        children: vec![
                            Node::Leaf {
                                class: 0,
                                counts: vec![4, 0, 0],
                            },
                            Node::Leaf {
                                class: 2,
                                counts: vec![0, 0, 9],
                            },
                        ],
                    },
                ],
            },
        }
    }

    #[test]
    fn predict_walks_threshold_and_groups() {
        let t = sample_tree();
        assert_eq!(t.predict(&[Value::Num(10.0), Value::Cat(1)]), 1);
        assert_eq!(t.predict(&[Value::Num(60.0), Value::Cat(0)]), 0);
        assert_eq!(t.predict(&[Value::Num(60.0), Value::Cat(2)]), 0);
        assert_eq!(t.predict(&[Value::Num(60.0), Value::Cat(1)]), 2);
    }

    #[test]
    fn unseen_category_falls_back_to_majority() {
        let t = sample_tree();
        assert_eq!(t.predict(&[Value::Num(60.0), Value::Cat(9)]), 2);
    }

    #[test]
    fn missing_value_falls_back() {
        let t = sample_tree();
        assert_eq!(t.predict(&[Value::Num(60.0)]), 2);
        assert_eq!(t.predict(&[]), 0);
    }

    #[test]
    fn intervals_routing() {
        let t = DecisionTree {
            method: TreeMethod::Chaid,
            feature_names: vec!["x".into()],
            classes: vec!["a".into(), "b".into(), "c".into()],
            root: Node::Split {
                feature: 0,
                rule: SplitRule::Intervals {
                    edges: vec![10.0, 20.0],
                },
                majority: 0,
                children: vec![
                    Node::Leaf { class: 0, counts: vec![1, 0, 0] },
                    Node::Leaf { class: 1, counts: vec![0, 1, 0] },
                    Node::Leaf { class: 2, counts: vec![0, 0, 1] },
                ],
            },
        };
        assert_eq!(t.predict(&[Value::Num(5.0)]), 0);
        assert_eq!(t.predict(&[Value::Num(10.0)]), 0);
        assert_eq!(t.predict(&[Value::Num(15.0)]), 1);
        assert_eq!(t.predict(&[Value::Num(25.0)]), 2);
    }

    #[test]
    fn structure_metrics() {
        let t = sample_tree();
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn rules_render() {
        let t = sample_tree();
        let rules = t.rules();
        assert_eq!(rules.len(), 3);
        assert!(rules[0].contains("size <= 50.0000"));
        assert!(rules[0].contains("THEN B"));
        assert!(rules[1].contains("algo in [0, 2]"));
        assert!(rules.iter().all(|r| r.starts_with("IF ")));
    }
}

#[cfg(test)]
mod serde_tests {
    use super::*;
    use crate::cart::{train_cart, CartParams};
    use crate::dataset::{Dataset, Feature, FeatureKind, Value};

    #[test]
    fn trees_serialize_and_predict_identically() {
        let mut d = Dataset::new(
            vec![
                Feature { name: "x".into(), kind: FeatureKind::Continuous },
                Feature { name: "c".into(), kind: FeatureKind::Categorical },
            ],
            vec!["a".into(), "b".into(), "c".into()],
        );
        for i in 0..120 {
            let label = (i % 3) as u32;
            d.push(
                vec![Value::Num((i * 7 % 50) as f64), Value::Cat(label)],
                label,
            );
        }
        let tree = train_cart(&d, &CartParams::default());
        let json = serde_json::to_string(&tree).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tree);
        for row in &d.rows {
            assert_eq!(tree.predict(&row.values), back.predict(&row.values));
        }
    }
}
