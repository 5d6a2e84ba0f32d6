//! Learnt-clause sharing between portfolio entrants.
//!
//! [`ClauseShare`] is the hub: one bounded, append-only export lane per
//! entrant. Each entrant gets a [`ShareEndpoint`] (via
//! [`ClauseShare::endpoint`]) implementing [`mca_sat::ClauseSink`]; the
//! solver pushes its low-LBD learnt clauses into the entrant's own lane as
//! they are learnt and, at every restart boundary, pulls everything the
//! *other* lanes accumulated since its last pull.
//!
//! Imports visit exporter lanes in entrant-index order and each lane in
//! append order, so the merge order of any individual pull is a
//! deterministic function of what the exporters had produced — there is no
//! arbitration by arrival time. (Which clauses have been produced by a
//! given wall-clock moment still depends on thread scheduling, which is
//! why sharing changes *speed*, never *verdicts*: every imported clause is
//! a logical consequence of the shared formula.)

use mca_sat::{ClauseSink, Lit, SharedClause};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Tuning knobs for [`ClauseShare`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharingConfig {
    /// Highest LBD accepted into an export lane; also installed as every
    /// entrant's [`mca_sat::SolverConfig::share_lbd_max`] by
    /// [`solve_portfolio`](crate::solve_portfolio). `0` disables sharing.
    pub max_lbd: u32,
    /// Per-entrant export-lane capacity in clauses; exports past it are
    /// dropped (and counted in [`ClauseShare::dropped`]). Bounds the
    /// memory a runaway exporter can pin.
    pub capacity: usize,
}

impl Default for SharingConfig {
    fn default() -> SharingConfig {
        SharingConfig {
            max_lbd: 4,
            capacity: 4096,
        }
    }
}

/// The shared learnt-clause pool for one portfolio race: one bounded
/// export lane per entrant plus global traffic counters.
///
/// # Examples
///
/// ```
/// use mca_runtime::{ClauseShare, SharingConfig};
/// use mca_sat::ClauseSink;
///
/// let share = ClauseShare::new(2, SharingConfig::default());
/// let a = share.endpoint(0);
/// let b = share.endpoint(1);
/// // Entrant 0 exports; entrant 1 sees it, entrant 0 does not re-import
/// // its own clause.
/// let lits = vec![mca_sat::Var::from_index(0).positive()];
/// a.export(&lits, 1);
/// let mut buf = Vec::new();
/// b.import(&mut buf);
/// assert_eq!(buf.len(), 1);
/// buf.clear();
/// a.import(&mut buf);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug)]
pub struct ClauseShare {
    lanes: Vec<Mutex<Vec<SharedClause>>>,
    config: SharingConfig,
    exported: AtomicU64,
    imported: AtomicU64,
    dropped: AtomicU64,
}

impl ClauseShare {
    /// Creates a pool with one export lane per entrant.
    pub fn new(entrants: usize, config: SharingConfig) -> Arc<ClauseShare> {
        Arc::new(ClauseShare {
            lanes: (0..entrants).map(|_| Mutex::new(Vec::new())).collect(),
            config,
            exported: AtomicU64::new(0),
            imported: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// The endpoint for entrant `index`, to be installed with
    /// [`mca_sat::Solver::set_clause_sink`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the pool's entrant count.
    pub fn endpoint(self: &Arc<Self>, index: usize) -> Arc<ShareEndpoint> {
        assert!(index < self.lanes.len(), "entrant index out of range");
        Arc::new(ShareEndpoint {
            share: Arc::clone(self),
            entrant: index,
            cursors: Mutex::new(vec![0; self.lanes.len()]),
        })
    }

    /// The pool's configuration.
    pub fn config(&self) -> SharingConfig {
        self.config
    }

    /// Clauses accepted into export lanes, across all entrants.
    pub fn exported(&self) -> u64 {
        self.exported.load(Ordering::Relaxed)
    }

    /// Clauses handed out by [`ClauseSink::import`] pulls, across all
    /// entrants (a clause exported once counts once per importer that
    /// pulled it).
    pub fn imported(&self) -> u64 {
        self.imported.load(Ordering::Relaxed)
    }

    /// Exports rejected because a lane was at capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One entrant's connection to a [`ClauseShare`] pool.
///
/// Implements [`mca_sat::ClauseSink`]: exports append to the entrant's own
/// lane, imports drain every *other* lane from a per-lane cursor (each
/// foreign clause is seen exactly once, in deterministic
/// lane-then-sequence order).
#[derive(Debug)]
pub struct ShareEndpoint {
    share: Arc<ClauseShare>,
    entrant: usize,
    /// Read position into each exporter lane.
    cursors: Mutex<Vec<usize>>,
}

impl ClauseSink for ShareEndpoint {
    fn export(&self, lits: &[Lit], lbd: u32) {
        if self.share.config.max_lbd == 0 || lbd > self.share.config.max_lbd {
            return;
        }
        let mut lane = self.share.lanes[self.entrant]
            .lock()
            .expect("share lane poisoned");
        if lane.len() >= self.share.config.capacity {
            self.share.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        lane.push(SharedClause {
            lits: lits.to_vec(),
            lbd,
        });
        self.share.exported.fetch_add(1, Ordering::Relaxed);
    }

    fn import(&self, buf: &mut Vec<SharedClause>) {
        let mut cursors = self.cursors.lock().expect("share cursors poisoned");
        let before = buf.len();
        for (lane_idx, lane) in self.share.lanes.iter().enumerate() {
            if lane_idx == self.entrant {
                continue;
            }
            let lane = lane.lock().expect("share lane poisoned");
            let from = cursors[lane_idx].min(lane.len());
            buf.extend_from_slice(&lane[from..]);
            cursors[lane_idx] = lane.len();
        }
        let pulled = (buf.len() - before) as u64;
        if pulled > 0 {
            self.share.imported.fetch_add(pulled, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mca_sat::Var;

    fn unit(i: usize) -> Vec<Lit> {
        vec![Var::from_index(i).positive()]
    }

    #[test]
    fn endpoints_see_foreign_lanes_exactly_once() {
        let share = ClauseShare::new(3, SharingConfig::default());
        let e0 = share.endpoint(0);
        let e1 = share.endpoint(1);
        let e2 = share.endpoint(2);
        e0.export(&unit(0), 2);
        e1.export(&unit(1), 2);
        e2.export(&unit(2), 2);
        let mut buf = Vec::new();
        e0.import(&mut buf);
        assert_eq!(buf.len(), 2, "own lane is excluded");
        // Deterministic merge order: lane 1 before lane 2.
        assert_eq!(buf[0].lits, unit(1));
        assert_eq!(buf[1].lits, unit(2));
        buf.clear();
        e0.import(&mut buf);
        assert!(buf.is_empty(), "cursor advanced past seen clauses");
        // New traffic after the pull is picked up by the next pull.
        e1.export(&unit(3), 1);
        e0.import(&mut buf);
        assert_eq!(buf.len(), 1);
        assert_eq!(share.exported(), 4);
        assert_eq!(share.imported(), 3);
    }

    #[test]
    fn lbd_filter_and_capacity_bound_exports() {
        let share = ClauseShare::new(
            2,
            SharingConfig {
                max_lbd: 2,
                capacity: 3,
            },
        );
        let e0 = share.endpoint(0);
        e0.export(&unit(0), 3); // over the LBD bound: silently rejected
        assert_eq!(share.exported(), 0);
        assert_eq!(share.dropped(), 0, "an LBD reject is not a drop");
        for i in 0..5 {
            e0.export(&unit(i), 1);
        }
        assert_eq!(share.exported(), 3, "lane capacity respected");
        assert_eq!(share.dropped(), 2);
        let mut buf = Vec::new();
        share.endpoint(1).import(&mut buf);
        assert_eq!(buf.len(), 3);
    }

    #[test]
    fn zero_max_lbd_disables_sharing() {
        let share = ClauseShare::new(
            2,
            SharingConfig {
                max_lbd: 0,
                capacity: 16,
            },
        );
        share.endpoint(0).export(&unit(0), 1);
        assert_eq!(share.exported(), 0);
    }
}
