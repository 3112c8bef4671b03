//! A fixed reference computation that reads the host's current speed, and
//! the normalization of measured times by it.
//!
//! The kernel uses none of the repository's code, so a change to the
//! program cannot move it; only the machine can. It mixes the kinds of work
//! the solver does: a dense LU factorization with partial pivoting (floating
//! point), gathers through a seeded index array, and hash-map inserts and
//! lookups (branches, allocation). Its working set (~0.7 MiB) is warmed by an
//! untimed run before each timed one, so the program's own cache footprint
//! does not move the reading.
//!
//! On a shared virtual machine the speed of a core varies by up to 1.9x in
//! phases of seconds to minutes, with no preemption to show for it. A
//! workload samples the kernel between its operations, and every time it
//! reports is scaled to the speed at which the kernel takes [`REFERENCE`]:
//! `reported = measured × REFERENCE / kernel time nearby`.

use crate::measure::Rng;
use qr_milp::{SolveObserver, SolveProgress};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Order of the dense matrix.
const DENSE: usize = 120;
/// Entries of the gather array (512 KiB of `f64`).
const GATHER: usize = 1 << 16;
/// Gathers per kernel run.
const GATHERS: usize = 1 << 18;
/// Hash-map entries per kernel run.
const KEYS: usize = 1 << 14;

/// Kernel time at the reference speed (about that of one vCPU of a quiet
/// 2-vCPU cloud VM). Only a scale: reported times are in ms at this speed.
pub const REFERENCE: Duration = Duration::from_micros(1600);

/// The kernel's inputs, built once.
#[derive(Debug)]
pub struct Calibration {
    matrix: Vec<f64>,
    values: Vec<f64>,
    index: Vec<u32>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Build the inputs from a fixed seed.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5EED, 99);
        let mut unit = move || (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let matrix = (0..DENSE * DENSE).map(|_| unit() - 0.5).collect();
        let values = (0..GATHER).map(|_| unit()).collect();
        let mut rng = Rng::new(0x5EED, 98);
        let index = (0..GATHERS).map(|_| rng.below(GATHER) as u32).collect();
        Calibration {
            matrix,
            values,
            index,
        }
    }

    /// One run of the kernel; returns a value that depends on all of it.
    fn kernel(&self) -> f64 {
        let mut a = self.matrix.clone();
        let n = DENSE;
        let mut acc = 0.0;
        for k in 0..n {
            let p = (k..n)
                .max_by(|&i, &j| a[i * n + k].abs().total_cmp(&a[j * n + k].abs()))
                .unwrap_or(k);
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
            }
            let pivot = a[k * n + k];
            acc += pivot.abs().ln();
            for i in k + 1..n {
                let factor = a[i * n + k] / pivot;
                for j in k..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        for &i in &self.index {
            acc += self.values[i as usize];
        }
        let mut map: HashMap<u64, u64> = HashMap::with_capacity(KEYS / 2);
        for (i, &key) in self.index.iter().take(KEYS).enumerate() {
            *map.entry(u64::from(key) % (KEYS as u64 / 2)).or_insert(0) += i as u64;
        }
        let hits = self
            .index
            .iter()
            .skip(KEYS)
            .take(KEYS)
            .filter(|&&key| map.contains_key(&u64::from(key)))
            .count();
        acc + hits as f64
    }

    /// Wall time of one kernel run after an untimed warm-up run.
    pub fn measure(&self) -> Duration {
        black_box(self.kernel());
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed()
    }
}

/// Shortest time between two samples taken inside one solve.
const IN_SOLVE_EVERY: Duration = Duration::from_millis(100);

/// The host-speed samples one thread takes during a pass.
#[derive(Debug)]
pub struct HostSpeed<'a> {
    calibration: &'a Calibration,
    samples: Vec<Duration>,
    /// Samples taken inside operations (see [`InSolve`]).
    inside: Vec<Duration>,
    /// Wall time spent sampling (both kernel runs).
    pub spent: Duration,
}

impl<'a> HostSpeed<'a> {
    /// No samples yet.
    pub fn new(calibration: &'a Calibration) -> Self {
        HostSpeed {
            calibration,
            samples: Vec::new(),
            inside: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Take a sample now; returns its mark, which names the interval up to
    /// the next sample.
    pub fn sample(&mut self) -> usize {
        let start = Instant::now();
        self.samples.push(self.calibration.measure());
        self.spent += start.elapsed();
        self.samples.len() - 1
    }

    /// The latest mark (take a sample first).
    pub fn mark(&self) -> usize {
        self.samples.len().saturating_sub(1)
    }

    /// The factor that scales a time measured after sample `mark` to the
    /// reference speed: the reference over the mean of the samples on
    /// either side of it.
    pub fn factor(&self, mark: usize) -> f64 {
        self.factor_with(mark, &[])
    }

    /// [`HostSpeed::factor`] for an operation that also took `inside`
    /// samples while it ran: the mean is over those and the two around it.
    pub fn factor_with(&self, mark: usize, inside: &[Duration]) -> f64 {
        let Some(&before) = self.samples.get(mark) else {
            return 1.0;
        };
        let after = self.samples.get(mark + 1).copied().unwrap_or(before);
        let sum = before + after + inside.iter().sum::<Duration>();
        (2 + inside.len()) as f64 * REFERENCE.as_secs_f64() / sum.as_secs_f64().max(1e-12)
    }

    /// Record samples an [`InSolve`] took, and the time they cost.
    pub fn absorb(&mut self, inside: &[Duration], spent: Duration) {
        self.inside.extend_from_slice(inside);
        self.spent += spent;
    }

    /// The reference over the mean of all samples: the factor of a whole
    /// pass.
    pub fn mean_factor(&self) -> f64 {
        let n = self.samples.len() + self.inside.len();
        if n == 0 {
            return 1.0;
        }
        let sum: Duration = self.samples.iter().chain(&self.inside).sum();
        REFERENCE.as_secs_f64() * n as f64 / sum.as_secs_f64().max(1e-12)
    }
}

/// A solve observer that samples the host's speed from inside a long solve,
/// on the solving thread, at most every [`IN_SOLVE_EVERY`] as nodes finish.
/// The time it spends is taken off the solve's latency.
#[derive(Debug)]
pub struct InSolve {
    calibration: Arc<Calibration>,
    state: Mutex<InSolveState>,
}

#[derive(Debug)]
struct InSolveState {
    last: Instant,
    samples: Vec<Duration>,
    spent: Duration,
}

impl InSolve {
    /// An observer for a solve starting now.
    pub fn new(calibration: Arc<Calibration>) -> Self {
        InSolve {
            calibration,
            state: Mutex::new(InSolveState {
                last: Instant::now(),
                samples: Vec::new(),
                spent: Duration::ZERO,
            }),
        }
    }

    /// The samples taken and the wall time they cost.
    pub fn taken(&self) -> (Vec<Duration>, Duration) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.samples.clone(), state.spent)
    }
}

impl SolveObserver for InSolve {
    fn node_processed(&self, _progress: &SolveProgress) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.last.elapsed() >= IN_SOLVE_EVERY {
            let start = Instant::now();
            state.samples.push(self.calibration.measure());
            state.spent += start.elapsed();
            state.last = Instant::now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_scale_to_the_reference() {
        let calibration = Calibration::new();
        let mut speed = HostSpeed::new(&calibration);
        assert_eq!(speed.factor(0), 1.0);
        speed.samples = vec![REFERENCE, REFERENCE * 3];
        assert!((speed.factor(0) - 0.5).abs() < 1e-12);
        assert!((speed.factor(1) - 1.0 / 3.0).abs() < 1e-12);
        assert!((speed.mean_factor() - 0.5).abs() < 1e-12);
        let inside = [REFERENCE * 2];
        assert!((speed.factor_with(0, &inside) - 0.5).abs() < 1e-12);
        speed.absorb(&inside, Duration::from_millis(1));
        assert!((speed.mean_factor() - 0.5).abs() < 1e-12);
        assert!(speed.sample() == 2 && speed.spent > Duration::from_millis(1));
    }
}
