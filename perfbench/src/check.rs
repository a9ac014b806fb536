//! Output validation that shares no code with the solver's oracles.
//!
//! The solver decides edges from packed words (`pauli::encode`, the
//! packed replica in `picasso::packed`); these checks go back to the
//! per-qubit operators of `PauliString` and apply the textbook rule, so a
//! bug in the encoding or the kernels cannot hide itself.

use graph::EdgeOracle;
use pauli::{Pauli, PauliString};
use picasso_service::HashOracle;
use std::collections::BTreeMap;

/// Two Pauli strings anticommute iff they carry different non-identity
/// operators on an odd number of qubits.
fn anticommute(a: &PauliString, b: &PauliString) -> bool {
    let clashes = a
        .ops()
        .iter()
        .zip(b.ops())
        .filter(|&(&x, &y)| x != Pauli::I && y != Pauli::I && x != y)
        .count();
    clashes % 2 == 1
}

/// Color classes as vertex lists, or `None` if `colors` does not cover
/// exactly `n` vertices or `num_colors` is not the class count.
fn classes(n: usize, colors: &[u32], num_colors: u32) -> Option<Vec<Vec<usize>>> {
    if colors.len() != n {
        return None;
    }
    let mut by_color: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (v, &c) in colors.iter().enumerate() {
        by_color.entry(c).or_default().push(v);
    }
    (by_color.len() == num_colors as usize).then(|| by_color.into_values().collect())
}

/// Every color class is a set of pairwise anticommuting strings (one
/// unitary of the partition).
pub fn pauli_partition_ok(strings: &[PauliString], colors: &[u32], num_colors: u32) -> bool {
    classes(strings.len(), colors, num_colors).is_some_and(|classes| {
        classes.iter().all(|class| {
            class.iter().enumerate().all(|(i, &u)| {
                class[i + 1..]
                    .iter()
                    .all(|&v| anticommute(&strings[u], &strings[v]))
            })
        })
    })
}

/// No color class contains an edge of the hash-defined graph.
pub fn graph_coloring_ok(oracle: &HashOracle, colors: &[u32], num_colors: u32) -> bool {
    classes(oracle.num_vertices(), colors, num_colors).is_some_and(|classes| {
        classes.iter().all(|class| {
            class
                .iter()
                .enumerate()
                .all(|(i, &u)| class[i + 1..].iter().all(|&v| !oracle.has_edge(u, v)))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(texts: &[&str]) -> Vec<PauliString> {
        texts.iter().map(|t| t.parse().unwrap()).collect()
    }

    #[test]
    fn textbook_anticommutation() {
        let s = strings(&["XI", "ZI", "XX", "YY", "IZ"]);
        assert!(anticommute(&s[0], &s[1]));
        assert!(!anticommute(&s[2], &s[3]));
        assert!(!anticommute(&s[0], &s[4]));
    }

    #[test]
    fn rejects_a_commuting_class_and_a_wrong_count() {
        let s = strings(&["XI", "ZI", "XX"]);
        assert!(pauli_partition_ok(&s, &[0, 0, 1], 2));
        assert!(!pauli_partition_ok(&s, &[0, 1, 0], 2));
        assert!(!pauli_partition_ok(&s, &[0, 0, 1], 3));
        assert!(!pauli_partition_ok(&s, &[0, 0], 1));
    }

    #[test]
    fn graph_check_sees_an_edge_inside_a_class() {
        let complete = HashOracle::new(4, 1.0, 3);
        assert!(graph_coloring_ok(&complete, &[0, 1, 2, 3], 4));
        assert!(!graph_coloring_ok(&complete, &[0, 1, 2, 2], 3));
    }
}
