//! Staleness-driven adaptive refresh control.
//!
//! PR 2's fixed refresh timer repairs lost control broadcasts within a
//! couple of seconds, but it pays that price even when nothing changes:
//! ~556 mnt-share frames/s on the 120-node loss workload, and above 25%
//! loss the refresh traffic itself competes for the airtime it is meant
//! to protect. The classic fix (RTCP's adaptive reporting interval,
//! SPBM's quiet-period suppression) is to spend refresh bandwidth where
//! the *residual staleness risk* is: fast while state is in flux, sparse
//! once every receiver has converged.
//!
//! [`RefreshController`] implements that policy as a deterministic state
//! machine over the protocol's existing fast refresh tick. The timer
//! keeps ticking at the configured floor rate (so snap-back never waits
//! on a long re-arm and the timer machinery stays single-chained); the
//! controller decides *per tick* whether this store actually
//! re-advertises:
//!
//! * **Quiet decay** — every fired refresh that follows a fully quiet
//!   interval widens the gap to the next one multiplicatively
//!   ([`REFRESH_BACKOFF_FACTOR`]×), clamped at `max_ticks` fast periods.
//! * **Snap-back** — any activity signal ([`RefreshController::on_activity`]:
//!   membership churn, an observed staleness conflict, K-miss pressure
//!   from entries that nearly expired) collapses the interval back to
//!   the floor, so the very next tick re-advertises.
//!
//! Each head runs one controller per summary store (MNT-Summary floods,
//! HT-Summary broadcasts), both clamped at
//! [`crate::model::REFRESH_MAX_BACKOFF_SUMMARY`]: these are the
//! flood-amplified frames the backoff saves. Designation announcements
//! are not backed off — they fire on every tick, because their silence
//! deadline is the members' failure detector. Receiver-side K-miss
//! deadlines must budget for an origin at full backoff — see
//! `HvdbConfig::summary_deadline`, which scales with the cap.

use crate::model::REFRESH_BACKOFF_FACTOR;

/// Per-store adaptive refresh state machine.
///
/// Intervals are measured in *ticks* of the protocol's fast refresh
/// timer ([`crate::model::REFRESH_INTERVAL`] plus jitter); an interval of 1
/// is the PR 2 fixed rate, the floor the controller snaps back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshController {
    /// Always [`REFRESH_BACKOFF_FACTOR`]: a field only so that the memory
    /// estimate's `size_of::<HeadState>()`, and every committed figure
    /// from it, stays as it was.
    factor: u32,
    /// Interval clamp, in ticks (1 = never back off).
    max_ticks: u32,
    /// Current interval between broadcasts, in ticks.
    interval: u32,
    /// Ticks elapsed since the last broadcast.
    since_fire: u32,
    /// Whether activity was signalled since the last broadcast.
    active: bool,
}

impl RefreshController {
    /// A controller backing off by [`REFRESH_BACKOFF_FACTOR`]× per quiet
    /// interval, clamped at `max_ticks` fast periods. `max_ticks <= 1`
    /// degenerates to the fixed rate (every tick fires).
    pub fn new(max_ticks: u32) -> Self {
        RefreshController {
            factor: REFRESH_BACKOFF_FACTOR,
            max_ticks: max_ticks.max(1),
            interval: 1,
            since_fire: 0,
            active: false,
        }
    }

    /// Signals activity (churn, observed staleness, K-miss pressure):
    /// the interval snaps back to the floor, so the next tick fires.
    pub fn on_activity(&mut self) {
        self.interval = 1;
        self.active = true;
    }

    /// Advances one fast-timer tick. Returns `true` when this store
    /// should re-advertise now; `false` means the refresh is suppressed
    /// (count it — suppressed refreshes are the overhead saving).
    ///
    /// Backoff happens at fire time: a fire that concludes a fully quiet
    /// interval widens the next one (`interval * factor`, clamped); any
    /// activity since the previous fire pins the next interval at the
    /// floor.
    pub fn on_tick(&mut self) -> bool {
        self.since_fire += 1;
        if self.since_fire < self.interval {
            return false;
        }
        self.interval = if self.active {
            1
        } else {
            (self.interval.saturating_mul(self.factor)).min(self.max_ticks)
        };
        self.active = false;
        self.since_fire = 0;
        true
    }

    /// The current interval between broadcasts, in fast-timer ticks
    /// (1 = floor rate; exported to the refresh-rate histogram).
    pub fn interval_ticks(&self) -> u32 {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives `n` ticks, returning the tick indices (1-based) that fired.
    fn fires(c: &mut RefreshController, n: u32) -> Vec<u32> {
        (1..=n).filter(|_| c.on_tick()).collect()
    }

    #[test]
    fn quiet_decay_is_multiplicative_and_clamped() {
        let mut c = RefreshController::new(8);
        // First tick fires (interval floor is 1), then gaps double: 2,
        // 4, 8, 8, ... fast periods between fires.
        assert_eq!(fires(&mut c, 40), vec![1, 3, 7, 15, 23, 31, 39]);
        assert_eq!(c.interval_ticks(), 8, "clamped at max_ticks");
    }

    #[test]
    fn activity_snaps_back_to_the_floor_rate() {
        let mut c = RefreshController::new(8);
        for _ in 0..20 {
            c.on_tick();
        }
        assert!(c.interval_ticks() > 1, "backed off while quiet");
        c.on_activity();
        assert_eq!(c.interval_ticks(), 1);
        // The very next tick fires — snap-back latency is one fast period.
        assert!(c.on_tick());
        // And the interval stays at the floor right after activity (the
        // fire consumed the activity flag, so the *following* quiet fire
        // is when backoff resumes).
        assert_eq!(c.interval_ticks(), 1);
        assert!(c.on_tick());
        assert_eq!(c.interval_ticks(), 2, "quiet again: backoff resumes");
    }

    #[test]
    fn activity_between_fires_keeps_the_rate_fast() {
        let mut c = RefreshController::new(16);
        // Signal activity every other tick: the controller must never
        // widen past the floor.
        for i in 1..=12u32 {
            if i % 2 == 0 {
                c.on_activity();
            }
            c.on_tick();
            assert!(c.interval_ticks() <= 2, "churning store stays fast");
        }
    }

    #[test]
    fn degenerate_configs_clamp_to_fixed_rate() {
        // max_ticks <= 1: every tick fires regardless of quiet.
        let mut c = RefreshController::new(1);
        assert_eq!(fires(&mut c, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(c.interval_ticks(), 1);
    }

    #[test]
    fn snap_back_from_full_backoff_fires_within_one_tick() {
        let mut c = RefreshController::new(64);
        for _ in 0..200 {
            c.on_tick();
        }
        assert_eq!(c.interval_ticks(), 64);
        // Mid-interval churn: don't wait the remaining ~63 ticks.
        c.on_activity();
        assert!(c.on_tick(), "snap-back must not honour the old interval");
    }
}
