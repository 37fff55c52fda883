//! Benchmark-side spans: one record per call into a layer, timed from
//! outside the program, kept in memory and folded into per-layer totals
//! when the run ends.

use crate::alloc;
use std::time::Instant;

/// The call a span times. The prefix before the first `.` of [`Kind::name`]
/// is the crate the call enters; `driver` is the benchmark's own replica of
/// the runner's client bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Cluster::load_direct` for one record.
    Load,
    /// `WorkloadSpec::next_operation` plus the `KeyChooser` draw.
    Gen,
    /// `Cluster::submit_read_id` / `submit_write_id`.
    Submit,
    /// `Simulation::next`.
    Next,
    /// `Cluster::handle` on a `StoreEvent::Deliver`.
    Deliver,
    /// `Cluster::handle` on a `StoreEvent::Process`.
    Process,
    /// `Cluster::handle` on a `StoreEvent::ClientReply`.
    ClientReply,
    /// `RunStats` latency recording and counters for one completion.
    Stats,
    /// `AdaptiveController::tick`.
    Tick,
    /// `Cluster::run_anti_entropy_round`.
    AeRound,
    /// `Cluster::handle` on an anti-entropy message (`AeDigest`, `AeKeys`
    /// or `AePull`), whatever the event kind: the rest of a round's work.
    AeHandle,
    /// `Cluster::divergent_keys` (the chaos-tick divergence scan).
    DivergenceScan,
    /// `Cluster::expire_stalled_ops`.
    ExpireStalled,
    /// `Cluster::apply_fault`.
    ApplyFault,
    /// Dropping the cluster after the run.
    Teardown,
    /// The driver's completion routing, retries and hedges, minus the
    /// layer calls it makes.
    Driver,
    /// `LiveHarmony::read`.
    LiveHarmonyRead,
    /// `LiveCluster::read` at the level the controller last prescribed.
    LiveClusterRead,
    /// `LiveHarmony::write`.
    LiveWrite,
    /// `LiveHarmony::adapt`.
    LiveAdapt,
}

impl Kind {
    /// Every kind, in report order.
    pub const ALL: [Kind; 20] = [
        Kind::Load,
        Kind::Gen,
        Kind::Submit,
        Kind::Next,
        Kind::Deliver,
        Kind::Process,
        Kind::ClientReply,
        Kind::Stats,
        Kind::Tick,
        Kind::AeRound,
        Kind::AeHandle,
        Kind::DivergenceScan,
        Kind::ExpireStalled,
        Kind::ApplyFault,
        Kind::Teardown,
        Kind::Driver,
        Kind::LiveHarmonyRead,
        Kind::LiveClusterRead,
        Kind::LiveWrite,
        Kind::LiveAdapt,
    ];

    /// This kind's index in [`Kind::ALL`].
    pub fn slot(self) -> usize {
        self as usize
    }

    /// The span's report name, `<layer>.<call>`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Load => "store.load",
            Kind::Gen => "ycsb.gen",
            Kind::Submit => "store.submit",
            Kind::Next => "sim.next",
            Kind::Deliver => "store.handle.deliver",
            Kind::Process => "store.handle.process",
            Kind::ClientReply => "store.handle.client_reply",
            Kind::Stats => "ycsb.stats",
            Kind::Tick => "adaptive.tick",
            Kind::AeRound => "store.ae.round",
            Kind::AeHandle => "store.ae.handle",
            Kind::DivergenceScan => "store.divergence_scan",
            Kind::ExpireStalled => "store.expire_stalled",
            Kind::ApplyFault => "store.apply_fault",
            Kind::Teardown => "store.teardown",
            Kind::Driver => "driver",
            Kind::LiveHarmonyRead => "live.harmony_read",
            Kind::LiveClusterRead => "live.cluster_read",
            Kind::LiveWrite => "live.write",
            Kind::LiveAdapt => "live.adapt",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call. `op` is the `OpId` the call served, 0 when none.
#[derive(Debug, Clone, Copy)]
struct Span {
    start_ns: u64,
    op: u64,
    /// Saturates at about 4.3 s.
    dur_ns: u32,
    /// At the start, the allocation counter; at the end, the difference.
    allocs: u32,
    parent: u32,
    kind: Kind,
}

/// An open span, returned by [`Tracer::begin`] and closed by [`Tracer::end`].
#[must_use]
pub struct Open(u32);

/// Records spans in memory. Spans nest: a span begun while another is open
/// is its child, and a parent's self time excludes its children.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-kind totals over a finished trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTotals {
    /// Spans recorded.
    pub count: u64,
    /// Self time: duration minus the children's durations.
    pub self_ns: u64,
    /// Allocations made inside the span but not inside its children.
    pub self_allocs: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span of `kind` now.
    pub fn begin(&mut self, kind: Kind) -> Open {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
            op: 0,
            // Only the difference is kept, so wrapping is harmless.
            allocs: alloc::allocations() as u32,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            kind,
        });
        self.open.push(index);
        Open(index)
    }

    /// Closes the innermost open span, recording the op it served.
    pub fn end(&mut self, open: Open, op: u64) {
        let top = self.open.pop().expect("end matches a begin");
        assert_eq!(top, open.0, "spans close innermost first");
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0 as usize];
        span.dur_ns = u32::try_from(now - span.start_ns).unwrap_or(u32::MAX);
        span.allocs = (alloc::allocations() as u32).wrapping_sub(span.allocs);
        span.op = op;
    }

    /// Distinct ops that at least one span served.
    pub fn distinct_ops(&self) -> usize {
        let mut ops: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.op)
            .filter(|&op| op != 0)
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops.len()
    }

    /// Folds the spans into per-kind totals, indexed like [`Kind::ALL`].
    pub fn totals(&self) -> [KindTotals; Kind::ALL.len()] {
        assert!(self.open.is_empty(), "every span is closed");
        let mut out = [KindTotals::default(); Kind::ALL.len()];
        for span in &self.spans {
            let t = &mut out[span.kind.slot()];
            t.count += 1;
            t.self_ns += u64::from(span.dur_ns);
            t.self_allocs += u64::from(span.allocs);
        }
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut out[self.spans[span.parent as usize].kind.slot()];
                parent.self_ns -= u64::from(span.dur_ns);
                parent.self_allocs -= u64::from(span.allocs);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parent_self_time_excludes_children() {
        let mut t = Tracer::default();
        let outer = t.begin(Kind::Driver);
        let inner = t.begin(Kind::Submit);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner, 7);
        t.end(outer, 7);
        let totals = t.totals();
        let driver = totals[Kind::Driver.slot()];
        let submit = totals[Kind::Submit.slot()];
        assert_eq!((driver.count, submit.count), (1, 1));
        assert!(submit.self_ns >= 2_000_000);
        assert!(driver.self_ns < submit.self_ns);
        assert_eq!(t.distinct_ops(), 1);
    }
}
