//! The persistent worker pool and the per-sweep job it executes.
//!
//! One sweep becomes one [`Job`]: the `r` grid is the work list, and the
//! unit of work is a *chunk* of consecutive `r` indices. Workers claim
//! chunks from a shared atomic cursor — self-scheduling ("work-stealing
//! from a common pile"), so a worker that lands on cheap cells simply
//! comes back for more instead of idling behind a static partition. The
//! calling thread participates as worker 0, so an engine that plans a
//! sweep single-threaded runs entirely in the caller with no cross-thread
//! traffic. Chunk size and participant count come from the engine's
//! adaptive scheduler ([`crate::Engine`]) — the job just executes the
//! plan.
//!
//! Each claimed chunk is evaluated *as a block*: one
//! [`SharedCache::get_or_compute_block`] round-trip fetches (or batch
//! computes, via [`ColumnBlockKernel::pi_tables`]) every π-table of the
//! chunk, then one [`ColumnBlockKernel::evaluate`] pass writes the
//! chunk's contiguous `r`-major span of the flat result buffers.
//!
//! Results land in preallocated flat structure-of-arrays buffers
//! ([`SoaBuffer`], one `f64` slab per requested metric, `r`-major): each
//! claimed chunk owns the disjoint span
//! `[start·n_max, end·n_max)` of every buffer, the kernel writes it
//! by slice index with no per-cell allocation, and the completion latch is
//! decremented once per claimed chunk rather than once per `r` index.
//! Cancellation is checked at chunk boundaries and between the π and
//! kernel phases of a chunk.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use zeroconf_cost::kernel::ColumnBlockKernel;
use zeroconf_dist::ReplyTimeDistribution;
use zeroconf_simd::{Backend, Mode};

use crate::cache::SharedCache;
use crate::request::{Metric, SweepRequest};
use crate::{CancelToken, EngineError};

/// The filled `r`-major buffers a finished job hands back; each slab is
/// `None` when it was not requested. Metric slabs come from ordinary
/// sweeps; the statistic slabs come from parametric-landscape builds
/// ([`Job::new`] with `statistic = true`).
pub(crate) struct JobBuffers {
    pub(crate) costs: Option<Vec<f64>>,
    pub(crate) errors: Option<Vec<f64>>,
    pub(crate) pi_prefix: Option<Vec<f64>>,
    pub(crate) pi_n: Option<Vec<f64>>,
}

/// A preallocated flat `f64` slab written concurrently through disjoint
/// column slices, then taken back as a `Vec<f64>` when the job completes.
///
/// The backing `Vec` is leaked at construction (only its raw parts are
/// kept), so handing out a `&mut [f64]` column never touches a Rust
/// reference to the whole buffer — concurrent writers hold aliases-free
/// slices derived straight from the base pointer. Synchronization is the
/// job's claim cursor (each index claimed exactly once) plus the
/// completion latch (all writes happen-before the caller's `take`).
struct SoaBuffer {
    base: *mut f64,
    len: usize,
    capacity: usize,
    taken: AtomicBool,
    /// Debug-build ledger of handed-out column ranges: `column` asserts
    /// each new claim is disjoint from every earlier one, turning a
    /// scheduler bug (double-claimed chunk) into a panic instead of a
    /// silent aliased write.
    #[cfg(debug_assertions)]
    claimed: Mutex<Vec<(usize, usize)>>,
}

// SAFETY: the raw pointer is only dereferenced through `column` (disjoint
// ranges, enforced by the job's claim cursor) and `take`/`Drop` (after the
// latch), so cross-thread sharing never produces an aliased write.
unsafe impl Send for SoaBuffer {}
unsafe impl Sync for SoaBuffer {}

impl SoaBuffer {
    fn new(len: usize) -> SoaBuffer {
        let mut slab = ManuallyDrop::new(vec![0.0f64; len]);
        SoaBuffer {
            base: slab.as_mut_ptr(),
            len,
            capacity: slab.capacity(),
            taken: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            claimed: Mutex::new(Vec::new()),
        }
    }

    /// The mutable column `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and claimed by exactly one live caller
    /// — the job guarantees both by handing each `r` index to exactly one
    /// worker via the atomic cursor.
    #[allow(clippy::mut_from_ref)]
    unsafe fn column(&self, start: usize, len: usize) -> &mut [f64] {
        debug_assert!(start + len <= self.len, "column outside the buffer");
        #[cfg(debug_assertions)]
        {
            let mut claimed = lock(&self.claimed);
            for &(s, l) in claimed.iter() {
                debug_assert!(
                    start + len <= s || s + l <= start,
                    "overlapping column claim: [{start}, {}) vs [{s}, {})",
                    start + len,
                    s + l
                );
            }
            claimed.push((start, len));
        }
        // SAFETY: the caller upholds the contract above — in bounds and
        // claimed by exactly one live caller — so this slice aliases no
        // other reference to the slab.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(start), len) }
    }

    /// Reassembles the slab into an owned `Vec<f64>`. Must only be called
    /// after the completion latch released (no writer can touch the slab
    /// again), and at most once.
    fn take(&self) -> Vec<f64> {
        // ORDERING: AcqRel — this swap is the slab's hand-off point. The
        // acquire half makes every worker's column writes visible to the
        // taker; the release half publishes the claim so a second take
        // trips the assert instead of racing (see sync-sites.txt).
        let already = self.taken.swap(true, Ordering::AcqRel);
        assert!(!already, "SoA buffer taken twice");
        // SAFETY: parts came from a leaked Vec<f64>; `taken` ensures
        // exactly one reassembly, and Drop skips freeing afterwards.
        unsafe { Vec::from_raw_parts(self.base, self.len, self.capacity) }
    }
}

impl Drop for SoaBuffer {
    fn drop(&mut self) {
        if !*self.taken.get_mut() {
            // SAFETY: never taken, so the leaked Vec is still ours to free.
            drop(unsafe { Vec::from_raw_parts(self.base, self.len, self.capacity) });
        }
    }
}

/// One sweep's shared state: inputs, the claim cursor, the flat result
/// buffers and the completion latch.
pub(crate) struct Job {
    block: ColumnBlockKernel,
    fingerprint: u64,
    n_max: u32,
    r_values: Vec<f64>,
    chunk: usize,
    cursor: AtomicUsize,
    cache: Arc<SharedCache>,
    /// Flat `r`-major metric buffers; `None` when the metric was not
    /// requested. Each claimed `r` index writes its own disjoint column.
    costs: Option<SoaBuffer>,
    errors: Option<SoaBuffer>,
    /// Flat `r`-major sufficient-statistic slabs (`Σ_{i<n} π_i` and
    /// `π_n`), present only for statistic jobs — the storage behind
    /// [`zeroconf_cost::param::ParamLandscape`].
    pi_prefix: Option<SoaBuffer>,
    pi_n: Option<SoaBuffer>,
    /// First evaluation error, if any; the sweep still drains so the
    /// latch always releases.
    failure: Mutex<Option<EngineError>>,
    /// `r` indices not yet finished; the caller waits for zero.
    pending: Mutex<usize>,
    done: Condvar,
    /// Cooperative cancellation, checked at every chunk boundary and
    /// between a chunk's π and kernel phases. A cancelled job still
    /// drains its work list (each claimed chunk is marked done without
    /// evaluating) so the latch always releases.
    cancel: CancelToken,
    /// Cells evaluated per participant (0 = caller, `1..` = pool workers).
    cells_by_worker: Vec<AtomicU64>,
    /// Cache hits/misses charged to this job alone.
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Job {
    /// Builds one sweep job. With `statistic = false` the job fills one
    /// metric slab per requested metric; with `statistic = true` it
    /// ignores the metric selection and fills the two sufficient-statistic
    /// slabs instead (same π pipeline, same chunking, same cache).
    pub(crate) fn new(
        request: &SweepRequest,
        cache: Arc<SharedCache>,
        backend: Backend,
        participants: usize,
        chunk: usize,
        cancel: CancelToken,
        statistic: bool,
    ) -> Job {
        let r_count = request.grid.r_values.len();
        let cells = r_count * request.grid.n_max as usize;
        Job {
            // Always `Mode::Exact`: engine results (and the π-tables they
            // share through the cache) must be backend-invariant.
            block: ColumnBlockKernel::with_backend(&request.scenario, backend, Mode::Exact),
            fingerprint: request.scenario.reply_time().fingerprint(),
            n_max: request.grid.n_max,
            r_values: request.grid.r_values.clone(),
            chunk: chunk.clamp(1, r_count.max(1)),
            cursor: AtomicUsize::new(0),
            cache,
            costs: (!statistic && request.wants(Metric::MeanCost)).then(|| SoaBuffer::new(cells)),
            errors: (!statistic && request.wants(Metric::ErrorProbability))
                .then(|| SoaBuffer::new(cells)),
            pi_prefix: statistic.then(|| SoaBuffer::new(cells)),
            pi_n: statistic.then(|| SoaBuffer::new(cells)),
            failure: Mutex::new(None),
            pending: Mutex::new(r_count),
            done: Condvar::new(),
            cancel,
            cells_by_worker: (0..participants).map(|_| AtomicU64::new(0)).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Claims and evaluates chunks until the work list is drained. Called
    /// by every participant, including the engine's own thread.
    pub(crate) fn run(&self, worker: usize) {
        loop {
            // ORDERING: the cursor only partitions indices; each chunk's
            // data flows through disjoint slab columns, and completion is
            // published by the latch, not the cursor.
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.r_values.len() {
                return;
            }
            let end = (start + self.chunk).min(self.r_values.len());
            if self.cancel.is_cancelled() {
                lock(&self.failure).get_or_insert(EngineError::Cancelled);
            } else if let Err(e) = self.evaluate_chunk(start, end, worker) {
                lock(&self.failure).get_or_insert(e);
            }
            // One latch update per claimed chunk, not per r index.
            let mut pending = lock(&self.pending);
            *pending -= end - start;
            if *pending == 0 {
                self.done.notify_all();
            }
        }
    }

    /// All cells of one claimed chunk `[start, end)` of `r` indices: one
    /// block cache round-trip (misses are batch-computed by
    /// [`ColumnBlockKernel::pi_tables`]), then a single
    /// [`ColumnBlockKernel::evaluate`] pass writing the chunk's
    /// contiguous span of the flat buffers — bit-identical to the
    /// per-`n` `*_from_pis` arithmetic.
    fn evaluate_chunk(&self, start: usize, end: usize, worker: usize) -> Result<(), EngineError> {
        let rs = &self.r_values[start..end];
        let (tables, hits, misses) =
            self.cache
                .get_or_compute_block(self.fingerprint, rs, self.n_max, |missing| {
                    self.block
                        .pi_tables(self.n_max, missing)
                        .map_err(EngineError::Cost)
                })?;
        // ORDERING: per-job statistics tallies, read only after the job
        // is joined.
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        if self.cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        let n_max = self.n_max as usize;
        let offset = start * n_max;
        let cells = (end - start) * n_max;
        // SAFETY: the chunk `[start, end)` was claimed by exactly one
        // worker via the atomic cursor, so this contiguous r-major span
        // of the costs buffer is unaliased; the chunk is within the r
        // grid, so it is in bounds.
        let costs = self
            .costs
            .as_ref()
            .map(|b| unsafe { b.column(offset, cells) });
        // SAFETY: same claim — the errors buffer's span for this chunk is
        // equally unaliased and in bounds.
        let errors = self
            .errors
            .as_ref()
            .map(|b| unsafe { b.column(offset, cells) });
        // SAFETY: same claim, for each statistic slab.
        let pi_prefix = self
            .pi_prefix
            .as_ref()
            .map(|b| unsafe { b.column(offset, cells) });
        // SAFETY: same claim.
        let pi_n = self
            .pi_n
            .as_ref()
            .map(|b| unsafe { b.column(offset, cells) });
        self.block
            .evaluate_with_statistic(self.n_max, rs, &tables, costs, errors, pi_prefix, pi_n)?;
        // ORDERING: per-worker statistics tally, read after join.
        self.cells_by_worker[worker].fetch_add(cells as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Blocks until every `r` index is finished, then hands back the
    /// filled buffers (`r`-major; `None` per unrequested slab) or the
    /// first failure.
    pub(crate) fn wait(&self) -> Result<JobBuffers, EngineError> {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self.done.wait(pending).unwrap_or_else(|e| e.into_inner());
        }
        drop(pending);
        if let Some(e) = lock(&self.failure).take() {
            return Err(e);
        }
        Ok(JobBuffers {
            costs: self.costs.as_ref().map(SoaBuffer::take),
            errors: self.errors.as_ref().map(SoaBuffer::take),
            pi_prefix: self.pi_prefix.as_ref().map(SoaBuffer::take),
            pi_n: self.pi_n.as_ref().map(SoaBuffer::take),
        })
    }

    pub(crate) fn cells_per_worker(&self) -> Vec<u64> {
        self.cells_by_worker
            .iter()
            // ORDERING: statistics read; callers consult this after the
            // completion latch, so the tallies are already final.
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// The weakest SIMD tier any distribution batch of this job ran at —
    /// see [`ColumnBlockKernel::dist_backend_used`].
    pub(crate) fn dist_backend_used(&self) -> Backend {
        self.block.dist_backend_used()
    }
}

/// The persistent background threads. Jobs are broadcast as `Arc`s to
/// every worker; idle workers find the cursor exhausted and go back to
/// waiting, so broadcasting to more workers than the job needs is free.
pub(crate) struct WorkerPool {
    senders: Vec<Sender<Arc<Job>>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `background` worker threads (may be zero).
    pub(crate) fn new(background: usize) -> WorkerPool {
        let mut senders = Vec::with_capacity(background);
        let mut handles = Vec::with_capacity(background);
        for worker in 0..background {
            let (tx, rx) = channel::<Arc<Job>>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("zeroconf-engine-{worker}"))
                    .spawn(move || {
                        // Worker ids start at 1; 0 is the calling thread.
                        while let Ok(job) = rx.recv() {
                            job.run(worker + 1);
                        }
                    })
                    .expect("spawning an engine worker thread"),
            );
        }
        WorkerPool { senders, handles }
    }

    /// Hands `job` to every background worker.
    pub(crate) fn broadcast(&self, job: &Arc<Job>) {
        for sender in &self.senders {
            // A worker can only be gone if its thread panicked; the job
            // still completes via the remaining participants.
            let _ = sender.send(Arc::clone(job));
        }
    }

    pub(crate) fn background_workers(&self) -> usize {
        self.handles.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soa_buffer_round_trips_column_writes() {
        let buffer = SoaBuffer::new(6);
        // SAFETY: disjoint, in-bounds columns on one thread.
        unsafe {
            buffer.column(0, 3).copy_from_slice(&[1.0, 2.0, 3.0]);
            buffer.column(3, 3).copy_from_slice(&[4.0, 5.0, 6.0]);
        }
        assert_eq!(buffer.take(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn soa_buffer_rejects_double_take() {
        let buffer = SoaBuffer::new(2);
        let _first = buffer.take();
        let _second = buffer.take();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping column claim")]
    fn overlapping_column_claims_panic_in_debug_builds() {
        let buffer = SoaBuffer::new(6);
        // SAFETY: deliberately violates the disjointness contract; the
        // debug ledger must catch the second claim before any aliased
        // slice is created.
        unsafe {
            let _a = buffer.column(0, 4);
            let _b = buffer.column(2, 4);
        }
    }

    #[test]
    fn dropping_an_untaken_buffer_frees_it() {
        // Exercised for the error path; leak detectors (and miri) would
        // flag a double free or leak here.
        let buffer = SoaBuffer::new(128);
        drop(buffer);
        let buffer = SoaBuffer::new(128);
        let owned = buffer.take();
        drop(buffer);
        assert_eq!(owned.len(), 128);
    }
}
