//! The benchmark's own span recorder: one span around each call into a
//! layer's public function, kept in memory and written out at exit.
//!
//! Single-threaded by construction — spans open and close on the thread
//! that drives the job script, so the open-span stack gives each span its
//! parent.

use std::cell::RefCell;
use std::time::Instant;

/// One closed (or still open, `end_ns == 0`) benchmark span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// Which set-up, warm-up or repeat the span belongs to.
    pub run: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: RefCell<Inner>,
}

/// Closes its span when dropped.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    index: usize,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next run (set-up, warm-up or repeat); returns its id.
    pub fn next_run(&self) -> u32 {
        let mut inner = self.inner.borrow_mut();
        inner.run += 1;
        inner.run
    }

    /// Open a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let (parent, run) = (inner.open.last().copied(), inner.run);
        inner.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            run,
        });
        inner.open.push(index);
        SpanGuard { rec: self, index }
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _s = self.span(name);
        f()
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Summed seconds of the spans named `name` in run `run`.
    pub fn total_secs(&self, name: &str, run: u32) -> f64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Number of spans named `name` in run `run`.
    pub fn count(&self, name: &str, run: u32) -> usize {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .count()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        let mut inner = self.rec.inner.borrow_mut();
        inner.spans[self.index].end_ns = end_ns;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.index), "spans close innermost-first");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parent_and_run() {
        let rec = Recorder::default();
        let run = rec.next_run();
        {
            let _job = rec.span("job");
            rec.time("apps.nr", || ());
            rec.time("apps.nr", || ());
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == run && s.end_ns >= s.start_ns));
        assert_eq!(rec.count("apps.nr", run), 2);
        assert!(rec.total_secs("job", run) >= rec.total_secs("apps.nr", run));
    }
}
