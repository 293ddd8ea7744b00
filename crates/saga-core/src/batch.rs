//! Lockstep batch support: the struct-of-arrays hot block for K-lane
//! drivers.
//!
//! A lockstep driver anneals K independent search cells ("lanes") in one
//! loop: every iteration perturbs all live lanes, evaluates them
//! back-to-back, then applies each lane's accept/reject and cooling update.
//! The per-lane *driver* state — cooling temperature, current/best objective
//! value, iteration counter, live mask — is what that loop touches on every
//! single step for every lane, so [`BatchedSchedContext`] lays each of those
//! scalars out as one lane-contiguous row (`temperature[lane]`,
//! `current[lane]`, ...) instead of per-lane structs: the K-wide sweeps
//! (cooling, retirement scan) walk dense `f64`/`u32` rows the
//! autovectorizer handles, and the mask makes lane divergence — a lane
//! whose schedule finishes early — a retirement, not a branch in the sweep.
//!
//! Each lane keeps its own full [`SchedContext`]: the scheduling kernel's
//! tables are per-instance and lanes anneal *different* instances, so the
//! cross-lane win there is locality (the driver evaluates lanes
//! back-to-back, grouped by shape and scheduler pair, against contexts that
//! stay cache-resident) while the node-axis scans inside one lane vectorize
//! via the kernel's explicit-width loops — including the fused EFT row
//! kernels ([`SchedContext::eft_row_into`]), which every lane evaluation
//! reaches through the schedulers' own selection loops.
//!
//! Lockstep and scalar cells are bit-identical; `tests/batched_eval.rs`
//! runs every lockstep group against the scalar path directly.

use crate::kernel::SchedContext;

/// The hot block of a K-lane lockstep driver: one scheduling context per
/// lane plus the driver's per-lane scalar state as lane-contiguous
/// struct-of-arrays rows. See the [module docs](self) for the layout
/// rationale.
///
/// The rows are public on purpose: the driver's accept/reject step is a
/// tight loop over `candidate`/`current`/`best` and accessor indirection
/// per lane would undo the layout's point. Invariants the driver must keep:
/// every row has [`len`](Self::len) entries, and a retired lane's row
/// entries are left frozen at their final values.
#[derive(Debug, Default)]
pub struct BatchedSchedContext {
    lanes: Vec<SchedContext>,
    active: Vec<bool>,
    live: usize,
    /// Cooling temperature per lane.
    pub temperature: Vec<f64>,
    /// Geometric cooling factor per lane (lanes may carry different
    /// schedules).
    pub alpha: Vec<f64>,
    /// Temperature floor per lane; a lane retires when its temperature
    /// falls to (or below) this.
    pub floor: Vec<f64>,
    /// Current (last accepted) objective value per lane.
    pub current: Vec<f64>,
    /// Best objective value seen per lane.
    pub best: Vec<f64>,
    /// This step's candidate objective value per lane (scratch row filled
    /// by the evaluation phase, consumed by the accept phase).
    pub candidate: Vec<f64>,
    /// Iterations completed per lane.
    pub iters: Vec<u64>,
    /// Iteration cap per lane.
    pub iter_cap: Vec<u64>,
}

impl BatchedSchedContext {
    /// A block with `k` lanes, all retired until [`reset_lane`]d.
    ///
    /// [`reset_lane`]: Self::reset_lane
    pub fn with_lanes(k: usize) -> Self {
        let mut b = BatchedSchedContext::default();
        b.ensure_lanes(k);
        b
    }

    /// Grows the block to at least `k` lanes (keeping warm contexts) and
    /// marks every lane retired. Call once per batch before resetting the
    /// lanes the batch uses.
    pub fn ensure_lanes(&mut self, k: usize) {
        // warm-up only: grows the lane block the first time a batch width
        // is seen; same-width batches reuse it (outside the hot fn list)
        self.lanes
            .resize_with(k.max(self.lanes.len()), SchedContext::new);
        let n = self.lanes.len();
        self.active.clear();
        self.active.resize(n, false);
        self.live = 0;
        for row in [
            &mut self.temperature,
            &mut self.alpha,
            &mut self.floor,
            &mut self.current,
            &mut self.best,
            &mut self.candidate,
        ] {
            row.clear();
            row.resize(n, 0.0);
        }
        for row in [&mut self.iters, &mut self.iter_cap] {
            row.clear();
            row.resize(n, 0);
        }
    }

    /// Number of lanes in the block.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the block has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Number of lanes still live.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether lane `i` is still live.
    #[inline]
    pub fn is_active(&self, i: usize) -> bool {
        self.active[i]
    }

    /// Lane `i`'s scheduling context.
    #[inline]
    pub fn lane(&mut self, i: usize) -> &mut SchedContext {
        &mut self.lanes[i]
    }

    /// Arms lane `i` with a fresh annealing schedule and its initial
    /// objective value. The lane starts live unless the schedule is empty
    /// (`t_max <= t_min` or a zero iteration cap) — mirroring the scalar
    /// loop's entry condition, which such a schedule never enters.
    pub fn reset_lane(
        &mut self,
        i: usize,
        t_max: f64,
        t_min: f64,
        alpha: f64,
        i_max: u64,
        initial: f64,
    ) {
        self.temperature[i] = t_max;
        self.floor[i] = t_min;
        self.alpha[i] = alpha;
        self.iters[i] = 0;
        self.iter_cap[i] = i_max;
        self.current[i] = initial;
        self.best[i] = initial;
        self.candidate[i] = initial;
        let was = self.active[i];
        self.active[i] = t_max > t_min && i_max > 0;
        match (was, self.active[i]) {
            (false, true) => self.live += 1,
            (true, false) => self.live -= 1,
            _ => {}
        }
    }

    /// Retires lane `i` (idempotent).
    pub fn retire(&mut self, i: usize) {
        if self.active[i] {
            self.active[i] = false;
            self.live -= 1;
        }
    }

    /// The masked K-wide cooling/retirement sweep: every live lane cools by
    /// its own factor and advances its iteration counter, then lanes whose
    /// temperature reached the floor or whose iteration cap is exhausted
    /// retire. One dense pass over the SoA rows; returns the number of
    /// lanes still live.
    pub fn advance_live(&mut self) -> usize {
        let mut live = 0usize;
        for i in 0..self.active.len() {
            if !self.active[i] {
                continue;
            }
            self.temperature[i] *= self.alpha[i];
            self.iters[i] += 1;
            let alive = self.temperature[i] > self.floor[i] && self.iters[i] < self.iter_cap[i];
            self.active[i] = alive;
            live += alive as usize;
        }
        self.live = live;
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_retire_on_floor_or_cap() {
        let mut b = BatchedSchedContext::with_lanes(3);
        // lane 0: retires by temperature floor after 2 coolings (10 -> 2.5)
        b.reset_lane(0, 10.0, 3.0, 0.5, 100, 1.0);
        // lane 1: retires by iteration cap after 1 step
        b.reset_lane(1, 10.0, 0.1, 0.99, 1, 1.0);
        // lane 2: empty schedule, never live
        b.reset_lane(2, 10.0, 10.0, 0.99, 100, 1.0);
        assert_eq!(b.live(), 2);
        assert_eq!(b.advance_live(), 1, "lane 1 hits its cap");
        assert!(b.is_active(0) && !b.is_active(1) && !b.is_active(2));
        assert_eq!(b.advance_live(), 0, "lane 0 cools through the floor");
        assert_eq!(b.live(), 0);
    }

    #[test]
    fn reset_rearms_a_retired_lane() {
        let mut b = BatchedSchedContext::with_lanes(1);
        b.reset_lane(0, 10.0, 0.1, 0.5, 4, 2.0);
        while b.advance_live() > 0 {}
        assert_eq!(b.live(), 0);
        b.reset_lane(0, 10.0, 0.1, 0.5, 4, 3.0);
        assert_eq!(b.live(), 1);
        assert_eq!(b.best[0], 3.0);
    }

    #[test]
    fn ensure_lanes_grows_and_clears() {
        let mut b = BatchedSchedContext::with_lanes(2);
        b.reset_lane(0, 10.0, 0.1, 0.99, 10, 1.0);
        b.ensure_lanes(4);
        assert_eq!(b.len(), 4);
        assert_eq!(b.live(), 0, "ensure_lanes retires everything");
        b.ensure_lanes(1);
        assert_eq!(b.len(), 4, "shrinking keeps warm lanes");
    }
}
