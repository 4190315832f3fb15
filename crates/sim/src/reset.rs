//! Reset-line modelling.

#![warn(clippy::missing_inline_in_public_items)]

/// A hardware reset line with a programmable assertion duration.
///
/// Mirrors the external reset unit the TMU signals to reinitialize a
/// faulty subordinate: a request asserts the line for `duration` cycles,
/// after which [`Reset::is_done_pulse`] reports completion for one cycle.
///
/// ```
/// use sim::Reset;
/// let mut rst = Reset::with_duration(2);
/// assert!(!rst.is_asserted());
/// rst.request();
/// assert!(rst.is_asserted());
/// rst.tick();
/// assert!(rst.is_asserted());
/// rst.tick();
/// assert!(!rst.is_asserted());
/// assert!(rst.is_done_pulse());
/// rst.tick();
/// assert!(!rst.is_done_pulse());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reset {
    duration: u64,
    /// Committed state: cycles the reset line stays asserted.
    remaining: u64,
    /// Committed state: one-cycle completion strobe.
    done_pulse: bool,
    /// Committed state: total reset requests served (for reporting).
    requests: u64,
}

impl Reset {
    /// Default reset assertion length, in cycles.
    pub const DEFAULT_DURATION: u64 = 8;

    /// A reset line with the default duration.
    #[inline]
    #[must_use]
    pub fn new() -> Self {
        Self::with_duration(Self::DEFAULT_DURATION)
    }

    /// A reset line asserting for `duration` cycles per request.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero.
    #[inline]
    #[must_use]
    pub fn with_duration(duration: u64) -> Self {
        assert!(duration > 0, "reset duration must be at least one cycle");
        Reset {
            duration,
            remaining: 0,
            done_pulse: false,
            requests: 0,
        }
    }

    /// Requests a reset. If one is already in progress the request merges
    /// into it (the line simply stays asserted).
    #[inline]
    pub fn request(&mut self) {
        if self.remaining == 0 {
            self.requests += 1;
        }
        self.remaining = self.duration;
        self.done_pulse = false;
    }

    /// True while the reset line is asserted.
    #[inline]
    #[must_use]
    pub fn is_asserted(&self) -> bool {
        self.remaining > 0
    }

    /// True for exactly one cycle after the reset deasserts.
    #[inline]
    #[must_use]
    pub fn is_done_pulse(&self) -> bool {
        self.done_pulse
    }

    /// Number of reset requests served so far.
    #[inline]
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Advances one cycle (call at commit time).
    #[inline]
    pub fn tick(&mut self) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.done_pulse = self.remaining == 0;
        } else {
            self.done_pulse = false;
        }
    }
}

impl Default for Reset {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_full_lifecycle() {
        let mut rst = Reset::with_duration(3);
        rst.request();
        assert_eq!(rst.requests(), 1);
        let mut asserted = 0;
        while rst.is_asserted() {
            asserted += 1;
            rst.tick();
            assert!(asserted < 100, "reset never completed");
        }
        assert_eq!(asserted, 3);
        assert!(rst.is_done_pulse());
        rst.tick();
        assert!(!rst.is_done_pulse());
    }

    #[test]
    fn reset_merge_extends_assertion() {
        let mut rst = Reset::with_duration(4);
        rst.request();
        rst.tick();
        rst.tick();
        rst.request(); // merge: restart countdown, no new request counted
        assert_eq!(rst.requests(), 1);
        let mut remaining = 0;
        while rst.is_asserted() {
            remaining += 1;
            rst.tick();
        }
        assert_eq!(remaining, 4);
    }

    #[test]
    fn second_request_after_done_counts() {
        let mut rst = Reset::with_duration(1);
        rst.request();
        rst.tick();
        rst.request();
        assert_eq!(rst.requests(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_duration_rejected() {
        let _ = Reset::with_duration(0);
    }

    #[test]
    fn idle_reset_never_pulses() {
        let mut rst = Reset::new();
        for _ in 0..10 {
            rst.tick();
            assert!(!rst.is_done_pulse());
        }
    }
}
