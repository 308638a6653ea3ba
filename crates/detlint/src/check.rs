// detlint: allow-file(D006) this module defines the model checker's own
// ordering vocabulary (`MemOrder::Relaxed` etc.); the modeled semantics
// below are the justification, there are no std atomics here.
//! A mini loom-style interleaving model checker.
//!
//! Model programs are written against an abstract shared memory of `u64`
//! cells and explored by a deterministic DFS over *every* interleaving of
//! their atomic operations — and, beyond thread scheduling, over every
//! value a relaxed load is allowed to return under a release/acquire
//! memory model.  That second axis is the point: a sequentially
//! consistent interleaver cannot distinguish `Release` from `Relaxed`,
//! so it could never catch the class of bug this workspace cares about
//! (a seqlock whose payload stores are not ordered against its version
//! counter).
//!
//! # The memory model, operationally
//!
//! Per location the checker keeps the full *modification order* — every
//! store ever executed, in execution order.  Per thread it keeps a
//! *view*: for each location, the index of the newest store in that
//! location's modification order the thread is known to be up to date
//! with.  Then:
//!
//! * a **load** may read *any* store at or after the thread's view index
//!   (the DFS branches over all of them); the view advances to the store
//!   it read.  An `Acquire` load additionally joins the release view
//!   attached to the store it read, if any.
//! * a **store** appends to the modification order and advances the
//!   writer's own view.  A `Release` store attaches a snapshot of the
//!   writer's view (including the new store) for acquiring readers to
//!   join.
//! * an **RMW** (`fetch_add`, `fetch_max`) always reads the *latest*
//!   store — that is exactly the atomicity RMWs guarantee — and writes
//!   like a store; `Acquire`/`Release` halves behave as above.  A
//!   `compare_exchange` is an RMW when the latest store matches and a
//!   load of the latest store when it does not.
//! * a thread spinning until another thread changes a location (a
//!   compare-exchange retry loop) says so through [`Program::blocked`]
//!   instead of stepping, so the search never schedules a futile retry;
//!   a schedule in which every unfinished thread is blocked is reported
//!   as a deadlock.
//!
//! This is the standard view-based operational presentation of the C11
//! release/acquire fragment (what loom implements), with one deliberate
//! simplification: modification order equals execution order, and
//! release sequences are not modeled.  Both make the model *stricter*
//! than C11 for writers (fewer admissible behaviors for correct code →
//! no missed passes) while keeping the stale-read behaviors that expose
//! weakened orderings.
//!
//! The exploration itself is stateless-with-replay: each schedule is a
//! path through a stack of choice points; the program is re-run from
//! scratch per path.  Programs must be deterministic given the choice
//! sequence — no wall clocks, no ambient entropy, exactly one shared-
//! memory operation per [`Program::step`] call.

/// Memory orderings a model program can request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrder {
    /// No synchronization: loads may read any coherent stale store.
    Relaxed,
    /// Load half: join the release view of the store that was read.
    Acquire,
    /// Store half: attach the writer's view for acquiring readers.
    Release,
    /// Both halves (for RMWs).
    AcqRel,
}

impl MemOrder {
    fn acquires(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::AcqRel)
    }
    fn releases(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::AcqRel)
    }
}

/// One store in a location's modification order.
#[derive(Debug, Clone)]
struct StoreRec {
    value: u64,
    /// Release view: per-location indices the storing thread had
    /// published at store time. `None` for relaxed stores.
    view: Option<Vec<usize>>,
}

/// The shared memory and per-thread views of one execution.
#[derive(Debug)]
pub struct Env<'c> {
    mem: Vec<Vec<StoreRec>>,
    views: Vec<Vec<usize>>,
    chooser: &'c mut Chooser,
}

impl<'c> Env<'c> {
    fn new(locs: usize, threads: usize, chooser: &'c mut Chooser) -> Self {
        Self {
            mem: vec![
                vec![StoreRec {
                    value: 0,
                    view: None,
                }];
                locs
            ],
            views: vec![vec![0; locs]; threads],
            chooser,
        }
    }

    /// Atomic load by `tid` from `loc`.
    pub fn load(&mut self, tid: usize, loc: usize, ord: MemOrder) -> u64 {
        let low = self.views[tid][loc];
        let n = self.mem[loc].len() - low;
        let pick = low + self.chooser.choose(n);
        self.views[tid][loc] = pick;
        if ord.acquires() {
            if let Some(v) = self.mem[loc][pick].view.clone() {
                join(&mut self.views[tid], &v);
            }
        }
        self.mem[loc][pick].value
    }

    /// Atomic store by `tid` to `loc`.
    pub fn store(&mut self, tid: usize, loc: usize, value: u64, ord: MemOrder) {
        let idx = self.mem[loc].len();
        self.views[tid][loc] = idx;
        let view = ord.releases().then(|| self.views[tid].clone());
        self.mem[loc].push(StoreRec { value, view });
    }

    /// Atomic read-modify-write: applies `f` to the *latest* store (RMW
    /// atomicity) and installs the result. Returns the previous value.
    pub fn rmw(&mut self, tid: usize, loc: usize, ord: MemOrder, f: impl Fn(u64) -> u64) -> u64 {
        let last = self.mem[loc].len() - 1;
        let old = self.mem[loc][last].value;
        self.views[tid][loc] = last;
        if ord.acquires() {
            if let Some(v) = self.mem[loc][last].view.clone() {
                join(&mut self.views[tid], &v);
            }
        }
        self.store(tid, loc, f(old), ord);
        old
    }

    /// `fetch_add`.
    pub fn fetch_add(&mut self, tid: usize, loc: usize, delta: u64, ord: MemOrder) -> u64 {
        self.rmw(tid, loc, ord, |v| v.wrapping_add(delta))
    }

    /// `compare_exchange`: if the latest store holds `current`, replace it
    /// with `new` as an RMW with the `success` ordering and return
    /// `Ok(current)`; otherwise load the latest store with the `failure`
    /// ordering and return it as `Err`.
    pub fn compare_exchange(
        &mut self,
        tid: usize,
        loc: usize,
        current: u64,
        new: u64,
        success: MemOrder,
        failure: MemOrder,
    ) -> Result<u64, u64> {
        let last = self.mem[loc].len() - 1;
        let old = self.mem[loc][last].value;
        if old == current {
            self.rmw(tid, loc, success, |_| new);
            return Ok(old);
        }
        self.views[tid][loc] = last;
        if failure.acquires() {
            if let Some(v) = self.mem[loc][last].view.clone() {
                join(&mut self.views[tid], &v);
            }
        }
        Err(old)
    }

    /// `fetch_max`.
    pub fn fetch_max(&mut self, tid: usize, loc: usize, value: u64, ord: MemOrder) -> u64 {
        self.rmw(tid, loc, ord, |v| v.max(value))
    }

    /// Latest value in `loc`'s modification order — ground truth for
    /// final-state checks (all threads have terminated by then).
    pub fn latest(&self, loc: usize) -> u64 {
        self.mem[loc].last().expect("location exists").value
    }
}

fn join(view: &mut [usize], other: &[usize]) {
    for (a, b) in view.iter_mut().zip(other) {
        *a = (*a).max(*b);
    }
}

/// A model program: a fixed set of threads stepping through atomic
/// operations, plus invariants.
pub trait Program {
    /// Number of shared memory locations (all start at 0).
    fn locs(&self) -> usize;
    /// Number of threads.
    fn threads(&self) -> usize;
    /// Has thread `tid` finished?
    fn done(&self, tid: usize) -> bool;
    /// Executes thread `tid`'s next operation. Must perform **exactly
    /// one** `Env` operation per call (that is the interleaving
    /// granularity) and must be deterministic.
    fn step(&mut self, tid: usize, env: &mut Env<'_>);
    /// Is thread `tid` waiting for another thread to change shared
    /// memory (it may peek with [`Env::latest`])?  A blocked thread is
    /// not scheduled.  The default: never.
    fn blocked(&self, _tid: usize, _env: &Env<'_>) -> bool {
        false
    }
    /// Invariant check after every thread has finished. Violations
    /// observed mid-run should be stashed in `self` and reported here.
    fn check(&self, env: &Env<'_>) -> Result<(), String>;
}

#[derive(Debug)]
struct ChoicePoint {
    taken: usize,
    options: usize,
}

#[derive(Debug, Default)]
struct Chooser {
    stack: Vec<ChoicePoint>,
    depth: usize,
}

impl Chooser {
    /// Returns a value in `0..n`, driven by the DFS replay stack.
    fn choose(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        if self.depth == self.stack.len() {
            self.stack.push(ChoicePoint {
                taken: 0,
                options: n,
            });
        }
        let cp = &self.stack[self.depth];
        debug_assert_eq!(cp.options, n, "program is not deterministic under replay");
        self.depth += 1;
        cp.taken
    }

    /// Advances to the next unexplored path. False when exhausted.
    fn backtrack(&mut self) -> bool {
        while let Some(cp) = self.stack.last_mut() {
            if cp.taken + 1 < cp.options {
                cp.taken += 1;
                self.depth = 0;
                return true;
            }
            self.stack.pop();
        }
        false
    }

    fn trace(&self) -> Vec<usize> {
        self.stack.iter().map(|c| c.taken).collect()
    }
}

/// A counterexample: the failed invariant plus the choice trace that
/// reproduces it.
#[derive(Debug)]
pub struct Violation {
    /// The invariant's error message.
    pub message: String,
    /// Choice indices (scheduling + load picks) reproducing the failure.
    pub trace: Vec<usize>,
    /// Executions explored before the failure surfaced.
    pub executions: usize,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (after {} executions; trace {:?})",
            self.message, self.executions, self.trace
        )
    }
}

/// The exhaustive checker.
#[derive(Debug)]
pub struct Checker {
    /// Hard cap on explored executions; exceeding it is an error (the
    /// model is too big, shrink it) rather than a silent truncation.
    pub max_executions: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Self {
            max_executions: 5_000_000,
        }
    }
}

impl Checker {
    /// Explores every schedule of the program produced by `mk`.
    /// Returns the number of executions on success.
    pub fn check<P: Program>(&self, mk: impl Fn() -> P) -> Result<usize, Violation> {
        let mut chooser = Chooser::default();
        let mut executions = 0usize;
        loop {
            executions += 1;
            if executions > self.max_executions {
                return Err(Violation {
                    message: format!(
                        "state space exceeds {} executions; shrink the model",
                        self.max_executions
                    ),
                    trace: chooser.trace(),
                    executions,
                });
            }
            let mut program = mk();
            let threads = program.threads();
            let mut env = Env::new(program.locs(), threads, &mut chooser);
            let mut deadlock = false;
            loop {
                let unfinished: Vec<usize> = (0..threads).filter(|&t| !program.done(t)).collect();
                if unfinished.is_empty() {
                    break;
                }
                let runnable: Vec<usize> = unfinished
                    .into_iter()
                    .filter(|&t| !program.blocked(t, &env))
                    .collect();
                if runnable.is_empty() {
                    deadlock = true;
                    break;
                }
                let pick = env.chooser.choose(runnable.len());
                program.step(runnable[pick], &mut env);
            }
            let verdict = if deadlock {
                Err("deadlock: every unfinished thread is blocked".to_string())
            } else {
                program.check(&env)
            };
            if let Err(message) = verdict {
                let trace = chooser.trace();
                return Err(Violation {
                    message,
                    trace,
                    executions,
                });
            }
            if !chooser.backtrack() {
                return Ok(executions);
            }
        }
    }
}

pub mod models;

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each `fetch_add(1)` the same cell; RMW atomicity must
    /// make the final value exact under every interleaving.
    struct TwoAdders {
        pc: [usize; 2],
    }

    impl Program for TwoAdders {
        fn locs(&self) -> usize {
            1
        }
        fn threads(&self) -> usize {
            2
        }
        fn done(&self, tid: usize) -> bool {
            self.pc[tid] >= 2
        }
        fn step(&mut self, tid: usize, env: &mut Env<'_>) {
            env.fetch_add(tid, 0, 1, MemOrder::Relaxed);
            self.pc[tid] += 1;
        }
        fn check(&self, env: &Env<'_>) -> Result<(), String> {
            if env.latest(0) == 4 {
                Ok(())
            } else {
                Err(format!("lost update: {} != 4", env.latest(0)))
            }
        }
    }

    #[test]
    fn rmw_atomicity_never_loses_updates() {
        let n = Checker::default()
            .check(|| TwoAdders { pc: [0, 0] })
            .unwrap();
        assert!(n >= 6, "expected at least C(4,2) schedules, got {n}");
    }

    /// Two threads each take a one-cell lock by compare-exchange (0 → 1),
    /// release it, and count once inside; the taker that finds it held
    /// is blocked, not spun.  With `release: false` nobody ever frees
    /// the lock, so the second taker waits forever.
    struct CasLock {
        release: bool,
        pc: [usize; 2],
    }

    const LOCK: usize = 0;
    const COUNT: usize = 1;

    impl Program for CasLock {
        fn locs(&self) -> usize {
            2
        }
        fn threads(&self) -> usize {
            2
        }
        fn done(&self, tid: usize) -> bool {
            self.pc[tid] >= 3
        }
        fn blocked(&self, tid: usize, env: &Env<'_>) -> bool {
            self.pc[tid] == 0 && env.latest(LOCK) != 0
        }
        fn step(&mut self, tid: usize, env: &mut Env<'_>) {
            match self.pc[tid] {
                0 => {
                    let taken = env
                        .compare_exchange(tid, LOCK, 0, 1, MemOrder::Acquire, MemOrder::Relaxed)
                        .is_ok();
                    self.pc[tid] = usize::from(taken);
                }
                1 => {
                    env.fetch_add(tid, COUNT, 1, MemOrder::Relaxed);
                    self.pc[tid] = 2;
                }
                _ => {
                    let free = if self.release { 0 } else { 1 };
                    env.store(tid, LOCK, free, MemOrder::Release);
                    self.pc[tid] = 3;
                }
            }
        }
        fn check(&self, env: &Env<'_>) -> Result<(), String> {
            match env.latest(COUNT) {
                2 => Ok(()),
                c => Err(format!("count {c} != 2")),
            }
        }
    }

    #[test]
    fn blocked_threads_wait_and_a_stuck_wait_is_a_deadlock() {
        let n = Checker::default()
            .check(|| CasLock {
                release: true,
                pc: [0, 0],
            })
            .unwrap();
        // The lock serializes the two critical sections: 2 orders, and
        // the holder's two inner steps interleave with nothing.
        assert!(n >= 2, "expected both lock orders, got {n}");
        let v = Checker::default()
            .check(|| CasLock {
                release: false,
                pc: [0, 0],
            })
            .expect_err("a lock never released must deadlock");
        assert!(v.message.contains("deadlock"), "got: {}", v.message);
    }

    /// The classic message-passing litmus test: flag=Release / flag=
    /// Acquire ⇒ data visible; flag=Relaxed ⇒ stale data observable.
    struct MessagePassing {
        flag_store: MemOrder,
        flag_load: MemOrder,
        pc: [usize; 2],
        observed_stale: bool,
    }

    impl MessagePassing {
        fn new(flag_store: MemOrder, flag_load: MemOrder) -> Self {
            Self {
                flag_store,
                flag_load,
                pc: [0, 0],
                observed_stale: false,
            }
        }
    }

    const DATA: usize = 0;
    const FLAG: usize = 1;

    impl Program for MessagePassing {
        fn locs(&self) -> usize {
            2
        }
        fn threads(&self) -> usize {
            2
        }
        fn done(&self, tid: usize) -> bool {
            self.pc[tid] >= 2
        }
        fn step(&mut self, tid: usize, env: &mut Env<'_>) {
            match (tid, self.pc[tid]) {
                (0, 0) => {
                    env.store(0, DATA, 42, MemOrder::Relaxed);
                    self.pc[0] = 1;
                }
                (0, 1) => {
                    env.store(0, FLAG, 1, self.flag_store);
                    self.pc[0] = 2;
                }
                (1, 0) => {
                    let f = env.load(1, FLAG, self.flag_load);
                    // Only a raised flag promises anything about DATA.
                    self.pc[1] = if f == 1 { 1 } else { 2 };
                }
                (1, 1) => {
                    if env.load(1, DATA, MemOrder::Relaxed) != 42 {
                        self.observed_stale = true;
                    }
                    self.pc[1] = 2;
                }
                _ => unreachable!(),
            }
        }
        fn check(&self, _env: &Env<'_>) -> Result<(), String> {
            if self.observed_stale {
                Err("flag seen but data stale".into())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn message_passing_release_acquire_is_sound() {
        Checker::default()
            .check(|| MessagePassing::new(MemOrder::Release, MemOrder::Acquire))
            .expect("release/acquire message passing must pass");
    }

    #[test]
    fn message_passing_relaxed_flag_is_caught() {
        let err = Checker::default()
            .check(|| MessagePassing::new(MemOrder::Relaxed, MemOrder::Acquire))
            .expect_err("relaxed publish must be caught");
        assert!(err.message.contains("stale"), "got: {}", err.message);
        let err = Checker::default()
            .check(|| MessagePassing::new(MemOrder::Release, MemOrder::Relaxed))
            .expect_err("relaxed consume must be caught");
        assert!(err.message.contains("stale"), "got: {}", err.message);
    }
}
