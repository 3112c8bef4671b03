//! Portfolio racing: run several refinement backends concurrently on one
//! request and return the first *acceptable* answer, cancelling the rest.
//!
//! The paper's Section 5 compares three ways of answering the same
//! refinement question — the MILP engine, the exhaustive provenance search
//! (`Naive+prov`) and the Erica-style whole-output baseline — and none
//! dominates on every instance: the exhaustive search wins on tiny scopes,
//! the MILP on large ones, Erica when whole-output semantics make the space
//! collapse. A *portfolio* sidesteps the prediction problem: race them under
//! a shared [`CancelToken`], let the instance pick its own winner, and stop
//! paying for the losers the moment an answer is in.
//!
//! ## Acceptability
//!
//! The race is only decided by **proven terminal** answers
//! ([`RefinementOutcome::is_proven_terminal`]) — an optimal refinement or a
//! proof that none exists — from an entrant that answers the request's own
//! question. Interrupted or limit-struck results never win. When no entrant
//! produces an acceptable answer (e.g. the caller's own deadline struck
//! first), the race falls back to the first entrant's result — the MILP
//! backend in the default portfolio — with [`PortfolioRace::winner`] left
//! `None`.
//!
//! The Erica-style backend answers the whole-output variant of the question
//! (exact constraint satisfaction, output size forced to k*, the baseline
//! caveat carried over from the paper), so its "optimal" is optimal over a
//! more constrained space and its "infeasible" proves nothing about the
//! top-k question: on the paper example at ε = 0 it proves infeasibility
//! while a distance-0.5 refinement exists. Its answers are kept in
//! [`PortfolioRace::entries`] but never decide a race.
//!
//! ## Control composition
//!
//! [`SolveControl::with_cancel_token`] *replaces* a control's token, so
//! handing every entrant the shared race token would silently disable the
//! caller's own cancellation. The race therefore keeps a watcher thread that
//! mirrors the caller's original stop condition (token and unified deadline)
//! onto the race token: cancelling the request cancels the whole portfolio.
//!
//! ## Cache interplay
//!
//! On a session with a [solution cache](crate::cache::SolutionCache), the
//! MILP entrant runs through the ordinary
//! [`solve`](RefinementSession::solve) path, so it both *uses* cached warm
//! starts and *banks* its winning basis for later requests — racing and
//! cross-request reuse compose with no extra wiring.
//!
//! [`SolveControl::with_cancel_token`]: qr_milp::control::SolveControl::with_cancel_token
//! [`CancelToken`]: qr_milp::control::CancelToken
//! [`RefinementOutcome::is_proven_terminal`]: crate::session::RefinementOutcome::is_proven_terminal

use crate::error::{CoreError, Result};
use crate::naive::NaiveMode;
use crate::session::{RefinementRequest, RefinementResult, RefinementSession};
use crate::solver::{EricaSolver, MilpSolver, NaiveSolver, RefinementSolver};
use crate::sync::lock_or_recover;
use qr_milp::control::CancelToken;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Identity of one portfolio entrant, used for statistics
/// ([`RefinementStats::portfolio_winner`](crate::session::RefinementStats::portfolio_winner),
/// [`StatsAggregate`](crate::session::StatsAggregate) win counters) and for
/// labelling custom entrants in
/// [`RefinementSession::solve_portfolio_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortfolioBackend {
    /// The MILP engine ([`MilpSolver`]), through the session's ordinary
    /// solve path (cache-aware on cached sessions).
    Milp,
    /// The exhaustive provenance-evaluated search
    /// ([`NaiveSolver`] in [`NaiveMode::Provenance`]).
    NaiveProvenance,
    /// The Erica-style whole-output baseline ([`EricaSolver`]).
    Erica,
}

impl PortfolioBackend {
    /// Short label matching the paper's algorithm names.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            PortfolioBackend::Milp => "MILP",
            PortfolioBackend::NaiveProvenance => "Naive+prov",
            PortfolioBackend::Erica => "Erica-style",
        }
    }

    /// Whether this backend's proofs are about the request's own top-k
    /// question, so that its proven answer may decide a race (see the
    /// [module docs](self)).
    fn answers_the_request(self) -> bool {
        !matches!(self, PortfolioBackend::Erica)
    }
}

impl std::fmt::Display for PortfolioBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One entrant's view of a finished race: its identity and the result it
/// returned (`None` if the backend failed with an error).
///
/// Losers of a decided race show up here with
/// [`RefinementOutcome::Interrupted`](crate::session::RefinementOutcome::Interrupted)
/// — the winner tripped the shared token mid-flight — which is how tests
/// verify the cancellation actually propagated.
#[derive(Debug, Clone)]
pub struct PortfolioEntry {
    /// Which backend this entry describes.
    pub backend: PortfolioBackend,
    /// The backend's full result, `None` if it returned an error.
    pub result: Option<RefinementResult>,
}

/// Outcome of a portfolio race: the winning (or fallback) result plus the
/// per-entrant evidence. Obtained from
/// [`RefinementSession::solve_portfolio_detailed`] /
/// [`solve_portfolio_with`](RefinementSession::solve_portfolio_with).
#[derive(Debug, Clone)]
pub struct PortfolioRace {
    /// The entrant whose acceptable answer decided the race first, `None`
    /// when the race fell back to the first entrant's result.
    pub winner: Option<PortfolioBackend>,
    /// The decided answer, with
    /// [`portfolio_races`](crate::session::RefinementStats::portfolio_races)
    /// and
    /// [`portfolio_winner`](crate::session::RefinementStats::portfolio_winner)
    /// set in its stats.
    pub result: RefinementResult,
    /// Every entrant's result, in entrant order (winner included).
    pub entries: Vec<PortfolioEntry>,
}

impl RefinementSession {
    /// Race the MILP engine, the exhaustive provenance search and the
    /// Erica-style baseline on one request; return the first proven-terminal
    /// answer to the request's own question and cancel the rest. See the
    /// [module docs](self) for acceptability and why the Erica-style entrant
    /// never decides.
    ///
    /// ```
    /// use qr_core::paper_example::{paper_database, scholarship_constraints, scholarship_query};
    /// use qr_core::prelude::*;
    ///
    /// let session = RefinementSession::new(paper_database(), scholarship_query()).unwrap();
    /// let request = RefinementRequest::new()
    ///     .with_constraints(scholarship_constraints())
    ///     .with_epsilon(0.0);
    /// let result = session.solve_portfolio(&request).unwrap();
    /// assert_eq!(result.stats.portfolio_races, 1);
    /// assert!(result.outcome.is_refined());
    /// ```
    pub fn solve_portfolio(&self, request: &RefinementRequest) -> Result<RefinementResult> {
        Ok(self.solve_portfolio_detailed(request)?.result)
    }

    /// [`solve_portfolio`](Self::solve_portfolio), but returning the full
    /// [`PortfolioRace`] — winner identity and every entrant's result — for
    /// callers (and tests) that need the losers' evidence.
    pub fn solve_portfolio_detailed(&self, request: &RefinementRequest) -> Result<PortfolioRace> {
        let naive = NaiveSolver::new(NaiveMode::Provenance);
        let entrants: [(PortfolioBackend, &dyn RefinementSolver); 3] = [
            (PortfolioBackend::Milp, &MilpSolver),
            (PortfolioBackend::NaiveProvenance, &naive),
            (PortfolioBackend::Erica, &EricaSolver),
        ];
        self.solve_portfolio_with(&entrants, request)
    }

    /// Race an arbitrary set of entrants. Each entrant solves the request
    /// under a control whose cancel token is the shared race token (its
    /// deadline/time limit/observer are kept); the caller's own token and
    /// deadline are mirrored onto the race token by a watcher, so cancelling
    /// the request still cancels every entrant.
    ///
    /// The first entrant doubles as the fallback: when nobody produces an
    /// acceptable answer, its result (or error) is returned with
    /// [`PortfolioRace::winner`] `None`.
    pub fn solve_portfolio_with(
        &self,
        entrants: &[(PortfolioBackend, &dyn RefinementSolver)],
        request: &RefinementRequest,
    ) -> Result<PortfolioRace> {
        if entrants.is_empty() {
            return Err(CoreError::InvalidInput(
                "portfolio race needs at least one entrant".to_string(),
            ));
        }
        let race = CancelToken::new();
        let winner = AtomicUsize::new(usize::MAX);
        let finished = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<RefinementResult>>>> =
            entrants.iter().map(|_| Mutex::new(None)).collect();
        let user_stop = request.control.stop_condition(Instant::now(), None);

        std::thread::scope(|scope| {
            for (i, (_, solver)) in entrants.iter().enumerate() {
                let entrant_request = request
                    .clone()
                    .with_control(request.control.clone().with_cancel_token(race.clone()));
                let (race, winner, finished, slot) = (&race, &winner, &finished, &slots[i]);
                let decisive = entrants[i].0.answers_the_request();
                scope.spawn(move || {
                    let outcome = solver.solve(self, &entrant_request);
                    let acceptable = decisive
                        && outcome
                            .as_ref()
                            .map(|r| r.outcome.is_proven_terminal())
                            .unwrap_or(false);
                    if acceptable
                        && winner
                            .compare_exchange(usize::MAX, i, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        // First acceptable answer decides the race; stop
                        // paying for everyone else.
                        race.cancel();
                    }
                    *lock_or_recover(slot) = Some(outcome);
                    finished.fetch_add(1, Ordering::AcqRel);
                });
            }
            // Watcher: `with_cancel_token` above REPLACED the caller's own
            // token in every entrant's control, so mirror the original stop
            // condition (token + unified deadline) onto the race token.
            let total = entrants.len();
            let (race, finished) = (&race, &finished);
            scope.spawn(move || {
                while finished.load(Ordering::Acquire) < total {
                    if user_stop.should_stop() {
                        race.cancel();
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        });

        let mut results: Vec<Option<Result<RefinementResult>>> = slots
            .into_iter()
            .map(|slot| match slot.into_inner() {
                Ok(v) => v,
                Err(poison) => poison.into_inner(),
            })
            .collect();
        let entries: Vec<PortfolioEntry> = entrants
            .iter()
            .zip(&results)
            .map(|(&(backend, _), res)| PortfolioEntry {
                backend,
                result: match res {
                    Some(Ok(r)) => Some(r.clone()),
                    _ => None,
                },
            })
            .collect();

        let winner_idx = winner.load(Ordering::Acquire);
        let (winner_backend, picked) = if winner_idx != usize::MAX {
            (Some(entrants[winner_idx].0), results[winner_idx].take())
        } else {
            // Undecided race: fall back to the first entrant, errors and all.
            (None, results[0].take())
        };
        let mut result = match picked {
            Some(Ok(result)) => result,
            Some(Err(e)) => return Err(e),
            // A scoped thread that panicked would have propagated at scope
            // exit, so every slot is filled here; this arm is a type-level
            // leftover, not a reachable state.
            None => {
                return Err(CoreError::InvalidInput(
                    "portfolio race produced no result".to_string(),
                ))
            }
        };
        result.stats.portfolio_races = 1;
        result.stats.portfolio_winner = winner_backend;
        Ok(PortfolioRace {
            winner: winner_backend,
            result,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example::{paper_database, scholarship_constraints, scholarship_query};

    fn paper_session() -> RefinementSession {
        RefinementSession::new(paper_database(), scholarship_query()).expect("session builds")
    }

    #[test]
    fn default_portfolio_answers_the_paper_example() {
        let session = paper_session();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0);
        let race = session
            .solve_portfolio_detailed(&request)
            .expect("race completes");
        let refined = race.result.outcome.refined().expect("a refinement");
        assert!(
            (refined.distance - 0.5).abs() < qr_milp::tol::ASSERT_TOL,
            "winner {:?} answered distance {}",
            race.winner,
            refined.distance
        );
        assert_eq!(race.result.stats.portfolio_races, 1);
        assert_eq!(race.result.stats.portfolio_winner, race.winner);
        assert_eq!(race.entries.len(), 3);
    }

    #[test]
    fn empty_portfolio_is_rejected() {
        let session = paper_session();
        let request = RefinementRequest::new().with_constraints(scholarship_constraints());
        assert!(matches!(
            session.solve_portfolio_with(&[], &request),
            Err(CoreError::InvalidInput(_))
        ));
    }

    /// A solver that never answers: it spins on its request's stop
    /// condition and reports `Interrupted` once it fires, recording that the
    /// cancellation genuinely reached it mid-flight.
    struct Blocker {
        saw_cancel: std::sync::atomic::AtomicBool,
    }

    impl RefinementSolver for Blocker {
        fn label(&self, _request: &RefinementRequest) -> String {
            "blocker".to_string()
        }

        fn solve(
            &self,
            _session: &RefinementSession,
            request: &RefinementRequest,
        ) -> crate::error::Result<RefinementResult> {
            let stop = request.control.stop_condition(Instant::now(), None);
            while !stop.should_stop() {
                std::thread::sleep(Duration::from_micros(200));
            }
            self.saw_cancel
                .store(true, std::sync::atomic::Ordering::Release);
            Ok(RefinementResult {
                outcome: crate::session::RefinementOutcome::Interrupted { best: None },
                stats: crate::session::RefinementStats {
                    interrupted: true,
                    ..Default::default()
                },
                resume: None,
            })
        }
    }

    #[test]
    fn caller_cancellation_still_reaches_the_entrants() {
        // `with_cancel_token` replaces the token in each entrant's control;
        // the watcher must mirror the caller's (pre-cancelled) token onto
        // the race token, or this blocker would spin forever.
        let session = paper_session();
        let token = CancelToken::new();
        token.cancel();
        let request = RefinementRequest::new()
            .with_constraints(scholarship_constraints())
            .with_epsilon(0.0)
            .with_cancel_token(token);
        let blocker = Blocker {
            saw_cancel: std::sync::atomic::AtomicBool::new(false),
        };
        let race = session
            .solve_portfolio_with(&[(PortfolioBackend::Milp, &blocker)], &request)
            .expect("race completes");
        assert_eq!(race.winner, None, "a blocked race has no winner");
        assert!(race.result.outcome.is_interrupted());
        assert!(
            blocker
                .saw_cancel
                .load(std::sync::atomic::Ordering::Acquire),
            "the mirrored cancellation must reach the entrant mid-flight"
        );
    }
}
