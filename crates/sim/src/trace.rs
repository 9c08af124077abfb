//! Optional superstep-level trace of a simulated execution.
//!
//! When enabled on a [`crate::machine::Machine`], every superstep
//! (local phase, collective, or asynchronous exchange stage) appends one
//! [`TraceEvent`] carrying, besides the charged cost and volumes, the
//! per-rank `(start, end)` spans the event occupied on the
//! [`crate::timeline::Timeline`].  The trace is therefore a full
//! per-rank Gantt chart of the run: the demo binary dumps it as JSON
//! (`--trace`), and [`Trace::critical_path`] extracts the chain of events
//! that determines the makespan.

use serde::Serialize;

use crate::metrics::Phase;
use crate::timeline::Span;
use crate::topology::RankId;

/// One superstep's worth of trace information.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceEvent {
    /// Index of the superstep (0-based, in execution order).
    pub superstep: u64,
    /// Phase the superstep was attributed to.
    pub phase: Phase,
    /// Static label identifying the operation ("gather", "all_to_allv", ...).
    pub label: &'static str,
    /// Simulated seconds charged for this superstep.
    pub simulated_seconds: f64,
    /// Words moved across the network in this superstep.
    pub comm_words: u64,
    /// Messages injected in this superstep.
    pub messages: u64,
    /// Per-rank `(start, end)` spans on the timeline.  For a synchronizing
    /// collective every participant shares one span; for a local phase each
    /// rank has its own; for an asynchronous stage the spans belong to the
    /// senders' NICs rather than their compute clocks.
    pub spans: Vec<Span>,
    /// For synchronizing events: the rank whose clock determined the start
    /// (the rank everyone else waited for).  `None` for per-rank events.
    pub bottleneck: Option<RankId>,
}

impl TraceEvent {
    /// The span this event occupies on rank `r`, if `r` participated.
    pub fn span_for(&self, r: RankId) -> Option<Span> {
        self.spans.iter().copied().find(|s| s.rank == r)
    }

    /// Earliest start over all participating ranks.
    pub fn start(&self) -> f64 {
        self.spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min)
    }

    /// Latest end over all participating ranks.
    pub fn end(&self) -> f64 {
        self.spans.iter().map(|s| s.end).fold(0.0, f64::max)
    }
}

/// One hop of the critical path: an event, viewed from the rank whose clock
/// the path runs through.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CriticalHop {
    /// Superstep index of the event.
    pub superstep: u64,
    /// Phase of the event.
    pub phase: Phase,
    /// Operation label of the event.
    pub label: &'static str,
    /// The rank the path runs through during this event.
    pub rank: RankId,
    /// When the rank entered the event.
    pub start: f64,
    /// When the rank left the event.
    pub end: f64,
}

/// A (possibly disabled) sequence of [`TraceEvent`]s.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// A trace that records events.
    pub fn enabled() -> Self {
        Self { enabled: true, events: Vec::new() }
    }

    /// A trace that silently drops events (the default; avoids unbounded
    /// memory growth in long benchmark runs).
    pub fn disabled() -> Self {
        Self { enabled: false, events: Vec::new() }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event (no-op when disabled).
    pub fn push(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// The recorded events, in execution order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total simulated time across recorded events.
    pub fn total_simulated_seconds(&self) -> f64 {
        self.events.iter().map(|e| e.simulated_seconds).sum()
    }

    /// The chain of events that determines the makespan, in execution
    /// order.
    ///
    /// Walks backwards from the globally latest span: at each hop the path
    /// follows the current rank's latest span ending at (or before) the
    /// current time; when the event is a synchronizing collective, the path
    /// jumps to the event's bottleneck rank — the rank everyone else waited
    /// for — because that rank's earlier work is what delayed the
    /// collective.  Empty if no events were recorded.
    pub fn critical_path(&self) -> Vec<CriticalHop> {
        // Allow for the last-few-bits noise of f64 accumulation when
        // matching span boundaries.
        const EPS: f64 = 1e-12;
        let mut path = Vec::new();
        // Globally latest span.
        let mut cursor: Option<(usize, RankId)> = None;
        let mut latest = f64::NEG_INFINITY;
        for (i, e) in self.events.iter().enumerate() {
            for s in &e.spans {
                if s.end > latest {
                    latest = s.end;
                    cursor = Some((i, s.rank));
                }
            }
        }
        let Some((idx, mut rank)) = cursor else {
            return path;
        };
        let mut next_idx = Some(idx);
        let mut visited = vec![false; self.events.len()];
        while let Some(idx) = next_idx {
            visited[idx] = true;
            let e = &self.events[idx];
            let span = e.span_for(rank).expect("cursor rank must participate");
            path.push(CriticalHop {
                superstep: e.superstep,
                phase: e.phase,
                label: e.label,
                rank,
                start: span.start,
                end: span.end,
            });
            if let Some(b) = e.bottleneck {
                rank = b;
            }
            let time = span.start;
            if time <= 0.0 {
                break;
            }
            // Predecessor: the event whose span on `rank` ends latest
            // without exceeding the current start time.
            next_idx = None;
            let mut best_end = f64::NEG_INFINITY;
            for (i, cand) in self.events.iter().enumerate() {
                if visited[i] {
                    continue;
                }
                if let Some(s) = cand.span_for(rank) {
                    if s.end <= time + EPS && s.end > best_end {
                        best_end = s.end;
                        next_idx = Some(i);
                    }
                }
            }
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(step: u64, phase: Phase, t: f64) -> TraceEvent {
        TraceEvent {
            superstep: step,
            phase,
            label: "test",
            simulated_seconds: t,
            comm_words: 0,
            messages: 0,
            spans: Vec::new(),
            bottleneck: None,
        }
    }

    fn spanned(
        step: u64,
        phase: Phase,
        label: &'static str,
        spans: Vec<Span>,
        bottleneck: Option<RankId>,
    ) -> TraceEvent {
        let dur = spans.iter().map(|s| s.end - s.start).fold(0.0, f64::max);
        TraceEvent {
            superstep: step,
            phase,
            label,
            simulated_seconds: dur,
            comm_words: 0,
            messages: 0,
            spans,
            bottleneck,
        }
    }

    fn span(rank: RankId, start: f64, end: f64) -> Span {
        Span { rank, start, end }
    }

    #[test]
    fn disabled_trace_drops_events() {
        let mut t = Trace::disabled();
        t.push(event(0, Phase::Other, 1.0));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.push(event(0, Phase::Sampling, 1.0));
        t.push(event(1, Phase::Histogramming, 2.0));
        t.push(event(2, Phase::Sampling, 3.0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.events()[1].phase, Phase::Histogramming);
        assert_eq!(t.total_simulated_seconds(), 6.0);
    }

    #[test]
    fn event_start_end_cover_spans() {
        let e = spanned(0, Phase::Other, "local", vec![span(0, 0.0, 1.0), span(1, 0.0, 3.0)], None);
        assert_eq!(e.start(), 0.0);
        assert_eq!(e.end(), 3.0);
        assert_eq!(e.span_for(1), Some(span(1, 0.0, 3.0)));
        assert_eq!(e.span_for(7), None);
    }

    #[test]
    fn critical_path_on_empty_trace_is_empty() {
        assert!(Trace::enabled().critical_path().is_empty());
        assert!(Trace::disabled().critical_path().is_empty());
    }

    #[test]
    fn critical_path_follows_bottleneck_through_a_collective() {
        // Hand-built two-rank run: rank 1's long local phase delays the
        // collective; after the collective rank 0 does the long tail work.
        //   step 0 (local): rank 0 [0, 1], rank 1 [0, 4]
        //   step 1 (sync collective, bottleneck rank 1): both [4, 5]
        //   step 2 (local): rank 0 [5, 8], rank 1 [5, 6]
        let mut t = Trace::enabled();
        t.push(spanned(
            0,
            Phase::LocalSort,
            "local_phase",
            vec![span(0, 0.0, 1.0), span(1, 0.0, 4.0)],
            None,
        ));
        t.push(spanned(
            1,
            Phase::Histogramming,
            "reduce_sum",
            vec![span(0, 4.0, 5.0), span(1, 4.0, 5.0)],
            Some(1),
        ));
        t.push(spanned(
            2,
            Phase::Merge,
            "local_phase",
            vec![span(0, 5.0, 8.0), span(1, 5.0, 6.0)],
            None,
        ));
        let path = t.critical_path();
        let hops: Vec<(u64, RankId)> = path.iter().map(|h| (h.superstep, h.rank)).collect();
        // Backwards: merge on rank 0 <- collective on rank 0, jumping to
        // bottleneck rank 1 <- rank 1's long local phase.
        assert_eq!(hops, vec![(0, 1), (1, 0), (2, 0)]);
        assert_eq!(path.last().unwrap().end, 8.0);
        assert_eq!(path[0].start, 0.0);
    }

    #[test]
    fn critical_path_picks_latest_ending_span_as_terminal() {
        // An async stage (NIC span) outlives the last compute event: the
        // path must terminate at the stage, not at the last pushed event.
        let mut t = Trace::enabled();
        t.push(spanned(0, Phase::DataExchange, "exchange_stage", vec![span(0, 1.0, 9.0)], None));
        t.push(spanned(
            1,
            Phase::Histogramming,
            "local_phase",
            vec![span(0, 1.0, 2.0), span(1, 1.0, 3.0)],
            None,
        ));
        let path = t.critical_path();
        assert_eq!(path.last().unwrap().label, "exchange_stage");
        assert_eq!(path.last().unwrap().end, 9.0);
    }
}
