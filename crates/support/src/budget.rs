//! Execution budgets: step limits, wall-clock deadlines, and
//! cooperative cancellation.
//!
//! A [`Budget`] is an immutable spec combining up to three limits:
//!
//! * a **step limit** — an upper bound on the abstract work units an
//!   algorithm may charge (states explored, tableau nodes expanded,
//!   closure tables examined, ...);
//! * a **deadline** — a wall-clock instant past which the algorithm
//!   must stop;
//! * a **cancellation flag** — a shared atomic ([`CancelFlag`]) any
//!   thread can raise to stop the work cooperatively.
//!
//! Algorithms call [`Budget::meter`] once per invocation to obtain a
//! [`BudgetMeter`], then [`BudgetMeter::charge`] from their inner loop.
//! The first violated limit surfaces as a typed
//! [`SlError::BudgetExceeded`] (steps/deadline) or
//! [`SlError::Cancelled`], carrying the phase name and the number of
//! steps spent — so a caller can distinguish "never started" from "ran
//! out mid-flight" and report partial progress.
//!
//! Every budgeted entry point in the workspace outside `sl-pdr` takes
//! `budget: Option<&Budget>`: `None` runs under the entry point's
//! default cap (if it has one) and consults no fault site, `Some`
//! meters the work against the budget. There is no environment knob.

use crate::error::SlError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative-cancellation flag. Cloning shares the flag:
/// raising it from any clone cancels every algorithm metering a budget
/// that carries it.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every meter observing it fails its next charge.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// An execution budget: any combination of a step limit, a wall-clock
/// deadline, and a cancellation flag. The default ([`Budget::unlimited`])
/// imposes no limit at all.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    max_steps: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelFlag>,
}

impl Budget {
    /// A budget with no limits: every charge succeeds.
    #[must_use]
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps the abstract step count at `n`.
    #[must_use]
    pub fn with_steps(mut self, n: u64) -> Self {
        self.max_steps = Some(n);
        self
    }

    /// Sets the deadline to `d` from now.
    #[must_use]
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Sets an absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a cancellation flag (shared with the caller's clone).
    #[must_use]
    pub fn with_cancel(mut self, flag: &CancelFlag) -> Self {
        self.cancel = Some(flag.clone());
        self
    }

    /// Starts metering this budget for one algorithm invocation. The
    /// `phase` names the algorithm in resulting errors (e.g.
    /// `"buchi.complement"`).
    #[must_use]
    pub fn meter(&self, phase: &'static str) -> BudgetMeter {
        BudgetMeter {
            phase,
            spent: 0,
            max_steps: self.max_steps,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
        }
    }
}

/// A running meter over one algorithm invocation: counts steps spent
/// and enforces the budget's limits on every charge.
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    phase: &'static str,
    spent: u64,
    max_steps: Option<u64>,
    deadline: Option<Instant>,
    cancel: Option<CancelFlag>,
}

impl BudgetMeter {
    /// Charges `n` abstract steps.
    ///
    /// # Errors
    ///
    /// [`SlError::BudgetExceeded`] when the step limit or deadline is
    /// passed, [`SlError::Cancelled`] when the flag is raised. `spent`
    /// in the error includes the failing charge, so it is nonzero
    /// whenever the algorithm made any progress.
    #[inline]
    pub fn charge(&mut self, n: u64) -> Result<(), SlError> {
        self.spent += n;
        if let Some(limit) = self.max_steps {
            if self.spent > limit {
                return Err(SlError::BudgetExceeded {
                    phase: self.phase,
                    spent: self.spent,
                });
            }
        }
        if let Some(flag) = &self.cancel {
            if flag.is_cancelled() {
                return Err(SlError::Cancelled {
                    phase: self.phase,
                    spent: self.spent,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(SlError::BudgetExceeded {
                    phase: self.phase,
                    spent: self.spent,
                });
            }
        }
        Ok(())
    }

    /// Charges one step — the common inner-loop call.
    ///
    /// # Errors
    ///
    /// As for [`BudgetMeter::charge`].
    #[inline]
    pub fn tick(&mut self) -> Result<(), SlError> {
        self.charge(1)
    }

    /// Charges one step, but only *evaluates* the limits every `stride`
    /// steps — for fixpoint loops whose iterations are cheaper than an
    /// `Instant::now()` call. The step count stays exact; enforcement is
    /// late by at most `stride - 1` steps, so callers trade that bounded
    /// overshoot for a `stride`-fold cheaper check. A `stride` of 1 is
    /// exactly [`BudgetMeter::tick`].
    ///
    /// # Errors
    ///
    /// As for [`BudgetMeter::charge`], on the steps where the limits
    /// are evaluated.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[inline]
    pub fn tick_every(&mut self, stride: u64) -> Result<(), SlError> {
        assert!(stride > 0, "stride must be positive");
        self.spent += 1;
        if self.spent.is_multiple_of(stride) {
            // Re-run the full limit evaluation on the already-counted
            // step: charge(0) checks steps/cancel/deadline at `spent`.
            self.charge(0)
        } else {
            Ok(())
        }
    }

    /// Steps charged so far (including any failing charge).
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// The phase name this meter reports in errors.
    #[must_use]
    pub fn phase(&self) -> &'static str {
        self.phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_fails() {
        let mut meter = Budget::unlimited().meter("test");
        for _ in 0..10_000 {
            meter.tick().unwrap();
        }
        assert_eq!(meter.spent(), 10_000);
    }

    #[test]
    fn step_limit_fails_with_spent_count() {
        let mut meter = Budget::unlimited().with_steps(3).meter("test.steps");
        meter.tick().unwrap();
        meter.tick().unwrap();
        meter.tick().unwrap();
        let err = meter.tick().unwrap_err();
        assert_eq!(
            err,
            SlError::BudgetExceeded {
                phase: "test.steps",
                spent: 4
            }
        );
    }

    #[test]
    fn expired_deadline_fails_first_charge_with_nonzero_spent() {
        let budget = Budget::unlimited().with_deadline(Instant::now());
        let mut meter = budget.meter("test.deadline");
        let err = meter.tick().unwrap_err();
        assert!(err.is_budget_exceeded());
        assert!(err.spent().unwrap() > 0);
    }

    #[test]
    fn cancellation_is_observed_and_shared() {
        let flag = CancelFlag::new();
        let budget = Budget::unlimited().with_cancel(&flag);
        let mut meter = budget.meter("test.cancel");
        meter.tick().unwrap();
        flag.clone().cancel();
        let err = meter.tick().unwrap_err();
        assert!(err.is_cancelled());
        assert_eq!(err.spent(), Some(2));
    }

    #[test]
    fn future_deadline_allows_work() {
        let budget = Budget::unlimited().with_deadline_in(Duration::from_secs(3600));
        let mut meter = budget.meter("test");
        for _ in 0..1000 {
            meter.tick().unwrap();
        }
    }

    #[test]
    fn tick_every_counts_exactly_and_enforces_late() {
        let mut meter = Budget::unlimited().with_steps(10).meter("test.stride");
        // 10 allowed steps, stride 4: checks fire at 4, 8, 12 — the
        // overshoot past the limit is caught at the next stride point.
        let mut failed_at = None;
        for i in 1..=16u64 {
            if meter.tick_every(4).is_err() {
                failed_at = Some(i);
                break;
            }
        }
        assert_eq!(failed_at, Some(12), "first evaluated step past limit");
        assert_eq!(meter.spent(), 12, "spent stays exact despite striding");
    }

    #[test]
    fn tick_every_stride_one_matches_tick() {
        let mut a = Budget::unlimited().with_steps(3).meter("test.s1");
        let mut b = Budget::unlimited().with_steps(3).meter("test.s1");
        for _ in 0..3 {
            a.tick().unwrap();
            b.tick_every(1).unwrap();
        }
        assert_eq!(a.tick().is_err(), b.tick_every(1).is_err());
        assert_eq!(a.spent(), b.spent());
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn tick_every_rejects_zero_stride() {
        let mut meter = Budget::unlimited().meter("test.zero");
        let _ = meter.tick_every(0);
    }

    #[test]
    fn charge_batches_count_fully() {
        let mut meter = Budget::unlimited().with_steps(10).meter("test.batch");
        meter.charge(8).unwrap();
        let err = meter.charge(5).unwrap_err();
        assert_eq!(err.spent(), Some(13));
    }
}
