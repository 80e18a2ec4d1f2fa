//! Pure admission + placement logic for the job pool.
//!
//! The scheduler owns no sockets and spawns no processes — it is a plain
//! state machine the daemon drives, which makes every backpressure and
//! placement invariant unit-testable without a single connection:
//!
//! * **Bounded queue, typed backpressure.** Admission checks tenant quota
//!   first (queued + running jobs per tenant), then global queue depth;
//!   each failure maps to a distinct [`RejectReason`] so clients can tell
//!   "you are over quota" from "the pool is busy".
//! * **Strict FIFO, no backfill.** If the head-of-line job cannot be
//!   placed, nothing behind it runs. Starvation-freedom for big jobs is
//!   worth more to a shared pool than utilization, and it keeps latency
//!   analysis honest (the bench measures what queued jobs actually wait).
//!   One sweep places heads until one does not fit, each on the lowest
//!   idle slots, so a run of 1-rank jobs streams through the pool without
//!   a round-trip through the event loop per job.

use crate::job::RejectReason;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Admission-control limits for the pool.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Max jobs waiting in the FIFO (global, across tenants).
    pub queue_depth: usize,
    /// Max queued + running jobs per tenant.
    pub tenant_quota: usize,
}

/// Outcome of [`Scheduler::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted; the pool-assigned job id.
    Accept(u64),
    /// Refused with a typed reason; nothing was enqueued.
    Reject(RejectReason),
}

/// One placement from [`Scheduler::dispatch`]: a job that starts now and
/// the slots it spans (one for a 1-rank job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dispatch {
    pub job: u64,
    /// Pool slots carved out for this job, in job-rank order.
    pub slots: Vec<usize>,
}

#[derive(Debug, Clone)]
struct Queued {
    job: u64,
    ranks: usize,
}

/// The pool's admission + placement state machine.
#[derive(Debug)]
pub struct Scheduler {
    limits: Limits,
    pool: usize,
    next_job: u64,
    queue: VecDeque<Queued>,
    /// queued + running jobs per tenant (quota accounting).
    load: HashMap<u32, usize>,
    /// tenant of every admitted-but-unfinished job.
    tenant_of: HashMap<u64, u32>,
    /// ranks wanted by every admitted-but-undispatched or running job.
    ranks_of: HashMap<u64, usize>,
    idle: BTreeSet<usize>,
    draining: bool,
}

impl Scheduler {
    pub fn new(pool: usize, limits: Limits) -> Scheduler {
        Scheduler {
            limits,
            pool,
            next_job: 1,
            queue: VecDeque::new(),
            load: HashMap::new(),
            tenant_of: HashMap::new(),
            ranks_of: HashMap::new(),
            idle: (0..pool).collect(),
            draining: false,
        }
    }

    /// Total slots in the pool.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Jobs waiting in the FIFO.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// True once every admitted job has completed (drain barrier).
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty() && self.tenant_of.is_empty()
    }

    /// Admit or reject one job of `ranks` ranks from `tenant`. On accept,
    /// the job sits in the FIFO until [`Scheduler::dispatch`] places it.
    /// Resubmissions after a restart pin their original id via `want_id`.
    pub fn submit(&mut self, tenant: u32, ranks: usize, want_id: Option<u64>) -> Admission {
        if self.draining {
            return Admission::Reject(RejectReason::ShuttingDown);
        }
        if ranks == 0 || ranks > self.pool {
            return Admission::Reject(RejectReason::PoolTooSmall);
        }
        if self.load.get(&tenant).copied().unwrap_or(0) >= self.limits.tenant_quota {
            return Admission::Reject(RejectReason::QuotaExceeded);
        }
        if self.queue.len() >= self.limits.queue_depth {
            return Admission::Reject(RejectReason::QueueFull);
        }
        let job = match want_id {
            Some(id) => {
                self.next_job = self.next_job.max(id + 1);
                id
            }
            None => {
                let id = self.next_job;
                self.next_job += 1;
                id
            }
        };
        *self.load.entry(tenant).or_insert(0) += 1;
        self.tenant_of.insert(job, tenant);
        self.ranks_of.insert(job, ranks);
        self.queue.push_back(Queued { job, ranks });
        Admission::Accept(job)
    }

    /// Place as many jobs as the head of the queue and the idle set allow,
    /// each on the lowest idle slots. Strict FIFO: stops at the first job
    /// that does not fit.
    pub fn dispatch(&mut self) -> Vec<Dispatch> {
        let mut out = Vec::new();
        while let Some(head) = self.queue.front() {
            if head.ranks > self.idle.len() {
                break;
            }
            let j = self.queue.pop_front().expect("front checked");
            let slots: Vec<usize> = self.idle.iter().copied().take(j.ranks).collect();
            for s in &slots {
                self.idle.remove(s);
            }
            out.push(Dispatch { job: j.job, slots });
        }
        out
    }

    /// Mark a job finished (result, typed rejection, or abandonment) and
    /// release its quota. Slots return separately via
    /// [`Scheduler::release`] as each worker reports in.
    pub fn complete(&mut self, job: u64) {
        self.ranks_of.remove(&job);
        if let Some(tenant) = self.tenant_of.remove(&job) {
            if let Some(l) = self.load.get_mut(&tenant) {
                *l = l.saturating_sub(1);
                if *l == 0 {
                    self.load.remove(&tenant);
                }
            }
        }
    }

    /// Return a slot to the idle set (its worker is registered and ready).
    pub fn release(&mut self, slot: usize) {
        debug_assert!(slot < self.pool);
        self.idle.insert(slot);
    }

    /// Take a slot out of the idle set (its worker died while idle; it
    /// rejoins via [`Scheduler::release`] once the respawn registers).
    pub fn remove_idle(&mut self, slot: usize) {
        self.idle.remove(&slot);
    }

    /// Put a still-admitted job back at the head of the queue (1-rank
    /// worker-loss retry). Quota is still held; FIFO position is restored.
    pub fn requeue_front(&mut self, job: u64) {
        let ranks = self.ranks_of[&job];
        self.queue.push_front(Queued { job, ranks });
    }

    /// Stop admitting; existing queue and running jobs finish normally.
    pub fn drain(&mut self) {
        self.draining = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(pool: usize) -> Scheduler {
        Scheduler::new(pool, Limits { queue_depth: 4, tenant_quota: 2 })
    }

    fn accept(s: &mut Scheduler, tenant: u32, ranks: usize) -> u64 {
        match s.submit(tenant, ranks, None) {
            Admission::Accept(id) => id,
            Admission::Reject(r) => panic!("expected accept, got {r:?}"),
        }
    }

    #[test]
    fn tenant_quota_is_checked_before_global_queue_depth() {
        let mut s = sched(4);
        accept(&mut s, 7, 2);
        accept(&mut s, 7, 2);
        // Tenant 7 is at quota even though the queue has room.
        assert_eq!(s.submit(7, 1, None), Admission::Reject(RejectReason::QuotaExceeded));
        // Another tenant still gets in.
        accept(&mut s, 8, 1);
        accept(&mut s, 9, 1);
        // Queue depth 4 reached: global backpressure for everyone else.
        assert_eq!(s.submit(10, 1, None), Admission::Reject(RejectReason::QueueFull));
    }

    #[test]
    fn quota_frees_on_completion_not_on_dispatch() {
        let mut s = sched(4);
        let a = accept(&mut s, 7, 2);
        accept(&mut s, 7, 2);
        let d = s.dispatch();
        assert_eq!(d.len(), 2, "both fit the 4-slot pool");
        // Running jobs still count against quota.
        assert_eq!(s.submit(7, 1, None), Admission::Reject(RejectReason::QuotaExceeded));
        s.complete(a);
        assert!(matches!(s.submit(7, 1, None), Admission::Accept(_)));
    }

    #[test]
    fn oversized_jobs_and_draining_pools_reject_typed() {
        let mut s = sched(2);
        assert_eq!(s.submit(1, 3, None), Admission::Reject(RejectReason::PoolTooSmall));
        assert_eq!(s.submit(1, 0, None), Admission::Reject(RejectReason::PoolTooSmall));
        s.drain();
        assert_eq!(s.submit(1, 1, None), Admission::Reject(RejectReason::ShuttingDown));
    }

    #[test]
    fn strict_fifo_head_of_line_blocks_backfill() {
        let mut s = sched(4);
        let a = accept(&mut s, 1, 4);
        let _b = accept(&mut s, 2, 4);
        let _c = accept(&mut s, 3, 1);
        let d = s.dispatch();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].job, a);
        assert_eq!(d[0].slots, vec![0, 1, 2, 3]);
        // Head (4 ranks) doesn't fit; the 1-rank job behind it must NOT
        // jump the line even though a slot-sized hole never opens for it.
        for slot in 0..2 {
            s.release(slot);
        }
        assert!(s.dispatch().is_empty(), "no backfill past a blocked head");
    }

    #[test]
    fn one_sweep_places_heads_in_fifo_order_until_one_does_not_fit() {
        let mut s = Scheduler::new(4, Limits { queue_depth: 8, tenant_quota: 8 });
        let a = accept(&mut s, 1, 1);
        let b = accept(&mut s, 2, 1);
        let c = accept(&mut s, 3, 1);
        let d = accept(&mut s, 4, 1);
        let e = accept(&mut s, 5, 2);
        let got = s.dispatch();
        // The four 1-rank heads take the four slots in one sweep; e needs 2
        // of the 0 remaining slots and waits.
        let jobs: Vec<u64> = got.iter().map(|x| x.job).collect();
        assert_eq!(jobs, vec![a, b, c, d]);
        assert!(got.iter().all(|x| x.slots.len() == 1));
        let used: BTreeSet<usize> = got.iter().flat_map(|x| x.slots.clone()).collect();
        assert_eq!(used.len(), 4, "each 1-rank job gets its own slot");
        assert_eq!(s.queued(), 1, "the 2-rank job waits");
        s.release(0);
        s.release(1);
        let got = s.dispatch();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].job, e);
        assert_eq!(got[0].slots.len(), 2);
    }

    #[test]
    fn requeue_front_restores_fifo_position_for_retry() {
        let mut s = Scheduler::new(1, Limits { queue_depth: 8, tenant_quota: 8 });
        let a = accept(&mut s, 1, 1);
        let b = accept(&mut s, 2, 1);
        let got = s.dispatch();
        assert_eq!(got.len(), 1, "one slot, one job out");
        assert_eq!(got[0].job, a);
        assert_eq!(s.queued(), 1);
        // a's worker dies mid-job: the slot stays out of the idle set
        // while the respawn boots, and a retries from the FRONT — ahead
        // of b, which arrived later.
        s.requeue_front(a);
        s.release(0);
        let got = s.dispatch();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].job, a, "retried job runs before later arrivals");
        assert_eq!(s.queued(), 1);
        let _ = b;
    }

    #[test]
    fn dead_idle_slots_do_not_get_jobs() {
        let mut s = sched(2);
        s.remove_idle(1);
        let a = accept(&mut s, 1, 2);
        assert!(s.dispatch().is_empty(), "pool has 2 slots but only 1 live");
        s.release(1);
        let got = s.dispatch();
        assert_eq!(got[0].job, a);
    }

    #[test]
    fn restart_resubmission_pins_original_ids_without_collision() {
        let mut s = sched(4);
        assert_eq!(s.submit(1, 1, Some(17)), Admission::Accept(17));
        // Fresh ids allocated afterwards never collide with pinned ones.
        let fresh = accept(&mut s, 1, 1);
        assert!(fresh > 17, "fresh id {fresh} must be past pinned 17");
        assert!(!s.quiescent());
        s.dispatch();
        s.complete(17);
        s.complete(fresh);
        assert!(s.quiescent());
    }
}
