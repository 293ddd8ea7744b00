//! A problem instance `(N, G)`: a network paired with a task graph.

use crate::{Network, TaskGraph};
use serde::{Deserialize, Serialize};

/// A scheduling problem instance: the pair `(N, G)` of Section II.
#[derive(Debug, Serialize, Deserialize)]
pub struct Instance {
    /// The compute network `N`.
    pub network: Network,
    /// The task graph `G`.
    pub graph: TaskGraph,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance {
            network: self.network.clone(),
            graph: self.graph.clone(),
        }
    }

    /// Buffer-reusing clone (see [`TaskGraph`]'s and [`Network`]'s
    /// `clone_from`): the annealer's per-iteration candidate copies become
    /// allocation-free after warm-up.
    fn clone_from(&mut self, source: &Self) {
        self.network.clone_from(&source.network);
        self.graph.clone_from(&source.graph);
    }
}

impl Instance {
    /// Pairs a network with a task graph.
    pub fn new(network: Network, graph: TaskGraph) -> Self {
        Instance { network, graph }
    }

    /// The communication-to-computation ratio of the instance: average
    /// communication time of a dependency divided by average execution time
    /// of a task (the paper's CCR). Returns 0 when there are no dependencies.
    pub fn ccr(&self) -> f64 {
        let avg_exec = self.graph.mean_task_cost() * self.network.mean_inverse_speed();
        let avg_comm = self.graph.mean_dependency_cost() * self.network.mean_inverse_link();
        if avg_exec == 0.0 {
            0.0
        } else {
            avg_comm / avg_exec
        }
    }

    /// Serializes the instance to JSON, mapping non-finite link strengths to
    /// `null` explicitly so the output round-trips (bare `serde_json` turns
    /// `inf` into `null` but cannot read it back into an `f64`).
    pub fn to_json(&self) -> String {
        let dto = dto::InstanceDto::from(self);
        // saga-lint: allow(error-discipline) — InstanceDto is vectors and tuples of primitives; the vendored serializer has no failure path for it
        serde_json::to_string_pretty(&dto).expect("instance serialization cannot fail")
    }

    /// Parses an instance previously produced by [`Instance::to_json`].
    /// Fails on malformed JSON *and* on well-formed JSON that encodes an
    /// invalid instance (a dependency cycle, an out-of-range task id) — a
    /// hand-edited witness file is a parse error, not a panic.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        let dto: dto::InstanceDto = serde_json::from_str(s)?;
        dto.try_into()
    }
}

mod dto {
    //! JSON-safe mirror of [`Instance`]: infinities become `None`.
    use crate::{Network, TaskGraph};
    use serde::{Deserialize, Serialize};

    fn enc(x: f64) -> Option<f64> {
        x.is_finite().then_some(x)
    }

    fn dec(x: Option<f64>) -> f64 {
        x.unwrap_or(f64::INFINITY)
    }

    #[derive(Serialize, Deserialize)]
    pub(super) struct InstanceDto {
        speeds: Vec<f64>,
        links: Vec<Option<f64>>,
        tasks: Vec<(String, f64)>,
        deps: Vec<(u32, u32, f64)>,
    }

    impl From<&super::Instance> for InstanceDto {
        fn from(inst: &super::Instance) -> Self {
            let n = inst.network.node_count();
            let mut links = Vec::with_capacity(n * n);
            for u in inst.network.nodes() {
                for v in inst.network.nodes() {
                    links.push(enc(inst.network.link(u, v)));
                }
            }
            // Canonical dep order: adjacency lists reflect mutation history
            // (perturbation add/remove churn), and the parse side re-inserts
            // in sorted order anyway. Sorting here makes serialization a
            // stable function of the instance's *value*, so an instance and
            // its JSON round-trip print identically (checkpoint replay and
            // resumed runs must emit byte-identical witness files).
            let mut deps: Vec<(u32, u32, f64)> = inst
                .graph
                .dependencies()
                .map(|(a, b, c)| (a.0, b.0, c))
                .collect();
            deps.sort_unstable_by_key(|&(a, b, _)| (a, b));
            InstanceDto {
                speeds: inst.network.speeds().to_vec(),
                links,
                tasks: inst
                    .graph
                    .tasks()
                    .map(|t| (inst.graph.name(t).to_string(), inst.graph.cost(t)))
                    .collect(),
                deps,
            }
        }
    }

    impl TryFrom<InstanceDto> for super::Instance {
        type Error = serde_json::Error;

        fn try_from(dto: InstanceDto) -> Result<Self, Self::Error> {
            let invalid = |msg: String| serde_json::Error::from(serde::Error::custom(msg));
            let network =
                Network::try_from_matrix(dto.speeds, dto.links.into_iter().map(dec).collect())
                    .map_err(|e| invalid(format!("network: {e}")))?;
            let mut graph = TaskGraph::with_capacity(dto.tasks.len());
            for (k, (name, cost)) in dto.tasks.into_iter().enumerate() {
                graph
                    .try_add_task(name, cost)
                    .map_err(|e| invalid(format!("task {k}: {e}")))?;
            }
            let mut deps = dto.deps;
            deps.sort_unstable_by_key(|&(a, b, _)| (a, b));
            for (a, b, c) in deps {
                graph
                    .add_dependency(a.into(), b.into(), c)
                    .map_err(|e| invalid(format!("dependency {a} -> {b}: {e}")))?;
            }
            Ok(super::Instance { network, graph })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskId;

    fn sample() -> Instance {
        let mut g = TaskGraph::new();
        let a = g.add_task("a", 2.0);
        let b = g.add_task("b", 4.0);
        g.add_dependency(a, b, 3.0).unwrap();
        Instance::new(Network::complete(&[1.0, 2.0], 1.5), g)
    }

    #[test]
    fn ccr_matches_hand_computation() {
        let inst = sample();
        // avg exec = mean cost 3 * mean inv speed 0.75 = 2.25
        // avg comm = mean dep 3 * mean inv link (1/1.5) = 2
        assert!((inst.ccr() - 2.0 / 2.25).abs() < 1e-12);
    }

    #[test]
    fn ccr_of_graph_without_deps_is_zero() {
        let mut g = TaskGraph::new();
        g.add_task("a", 1.0);
        let inst = Instance::new(Network::complete(&[1.0], 1.0), g);
        assert_eq!(inst.ccr(), 0.0);
    }

    #[test]
    fn json_round_trip_preserves_weights_and_infinities() {
        let inst = sample();
        let json = inst.to_json();
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(back.network.node_count(), 2);
        assert!(back
            .network
            .link(crate::NodeId(0), crate::NodeId(0))
            .is_infinite());
        assert_eq!(back.network.link(crate::NodeId(0), crate::NodeId(1)), 1.5);
        assert_eq!(back.graph.task_count(), 2);
        assert_eq!(back.graph.cost(TaskId(1)), 4.0);
        assert_eq!(back.graph.dependency_cost(TaskId(0), TaskId(1)), Some(3.0));
        assert_eq!(back.graph.name(TaskId(0)), "a");
    }

    /// A two-node, two-task instance in `to_json`'s layout with the given
    /// link matrix and task costs.
    fn json_with(links: &str, costs: [&str; 2]) -> String {
        format!(
            r#"{{"speeds": [1, 2], "links": [{links}],
                "tasks": [["a", {}], ["b", {}]], "deps": [[0, 1, 3]]}}"#,
            costs[0], costs[1]
        )
    }

    #[test]
    fn from_json_rejects_invalid_instances_with_named_errors() {
        let err = |json: String| Instance::from_json(&json).err().map(|e| e.to_string());
        assert!(Instance::from_json(&json_with("null, 1.5, 1.5, null", ["2", "4"])).is_ok());
        // a links array that is not speeds.len()^2 long
        let short = err(json_with("null, 1.5, 1.5", ["2", "4"]));
        assert!(
            short.as_deref().is_some_and(|e| e.contains("n*n")),
            "{short:?}"
        );
        // an asymmetric link matrix
        let asym = err(json_with("null, 1.5, 2.5, null", ["2", "4"]));
        assert!(
            asym.as_deref().is_some_and(|e| e.contains("symmetric")),
            "{asym:?}"
        );
        // a negative task cost
        let neg = err(json_with("null, 1.5, 1.5, null", ["2", "-4"]));
        assert!(
            neg.as_deref()
                .is_some_and(|e| e.contains("task 1") && e.contains("-4")),
            "{neg:?}"
        );
    }
}
