//! Trace sinks: where emitted [`Event`]s go.
//!
//! Instrumented code guards construction with [`TraceSink::enabled`]:
//!
//! ```text
//! if sink.enabled() { sink.emit(&Event::RoundStart { round }); }
//! ```
//!
//! With [`NullSink`] the guard is a monomorphized constant `false`, so the
//! event is never built and the instrumented runner compiles down to the
//! uninstrumented one.

use crate::event::Event;
use std::collections::VecDeque;
use std::io::{self, Write};

/// A consumer of trace events.
pub trait TraceSink {
    /// Whether events should be constructed at all. Instrumentation sites
    /// check this before building an [`Event`]; `false` makes tracing free.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: &Event);
}

impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&mut self, event: &Event) {
        (**self).emit(event);
    }
}

/// The disabled sink: tracing off, zero cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &Event) {}
}

/// An in-memory ring buffer keeping the most recent events.
///
/// When the buffer is full, the oldest event is evicted;
/// [`RecordingSink::total_emitted`] still counts everything that passed
/// through, so overflow is observable.
#[derive(Clone, Debug)]
pub struct RecordingSink {
    events: VecDeque<Event>,
    capacity: usize,
    total: u64,
}

impl RecordingSink {
    /// A ring buffer holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RecordingSink {
            events: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events (≤ capacity).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever emitted into this sink (including evicted ones).
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Drains the retained events, oldest first.
    pub fn take(&mut self) -> Vec<Event> {
        self.events.drain(..).collect()
    }
}

impl TraceSink for RecordingSink {
    fn emit(&mut self, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event.clone());
        self.total += 1;
    }
}

/// Streams events as JSONL (one event object per line) into any
/// [`io::Write`].
///
/// Write errors are sticky: the first failure is retained, later emits are
/// dropped, and [`JsonlSink::finish`] surfaces the error. Output is
/// byte-deterministic: same events in, same lines out.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    buf: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: String::with_capacity(128),
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the writer, or the first write error.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while emitting or flushing.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        self.buf.clear();
        event.write_jsonl(&mut self.buf);
        self.buf.push('\n');
        match self.out.write_all(self.buf.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> Event {
        Event::RoundStart { round }
    }

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(&ev(1)); // must not panic, must do nothing observable
    }

    #[test]
    fn recording_sink_keeps_a_ring() {
        let mut s = RecordingSink::new(2);
        assert!(s.enabled());
        assert!(s.is_empty());
        for r in 1..=5 {
            s.emit(&ev(r));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.capacity(), 2);
        assert_eq!(s.total_emitted(), 5);
        let kept: Vec<Event> = s.take();
        assert_eq!(kept, vec![ev(4), ev(5)]);
        assert!(s.is_empty());
    }

    #[test]
    fn recording_sink_zero_capacity_is_clamped() {
        let mut s = RecordingSink::new(0);
        s.emit(&ev(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.events().count(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut s = JsonlSink::new(Vec::new());
        s.emit(&ev(1));
        s.emit(&ev(2));
        assert_eq!(s.lines_written(), 2);
        let out = s.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"round_start\",\"round\":1}\n{\"type\":\"round_start\",\"round\":2}\n"
        );
    }

    #[test]
    fn jsonl_sink_errors_are_sticky() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut s = JsonlSink::new(Failing);
        s.emit(&ev(1));
        s.emit(&ev(2));
        assert_eq!(s.lines_written(), 0);
        assert!(s.finish().is_err());
    }

    #[test]
    fn mut_ref_forwards() {
        fn feed<S: TraceSink>(mut sink: S) {
            assert!(sink.enabled());
            sink.emit(&ev(9));
        }
        let mut inner = RecordingSink::new(4);
        feed(&mut inner); // exercises the blanket `&mut T` impl
        assert_eq!(inner.len(), 1);
    }
}
