//! Trace sinks: where sequenced records go.

use crate::event::TraceRecord;
use serde::Serialize;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A destination for sequenced trace records.
///
/// Sinks must be shareable across the tracer and the code that later reads
/// the stream back (golden tests keep their own `Arc` to a
/// [`RingBufferSink`]), hence `Send + Sync` with interior mutability.
pub trait TraceSink: Send + Sync {
    /// Accepts one record. Infallible by design: persistent sinks latch
    /// I/O errors internally and report them from [`TraceSink::finish`],
    /// so the hot measurement path never branches on I/O.
    fn record(&self, record: &TraceRecord);

    /// Whether the sink keeps the records it is given. A
    /// [`Tracer`](crate::Tracer) asks once, when it is built: over a sink
    /// that keeps nothing, its spans only count (metrics are derived as
    /// events are emitted) and no event is built, buffered or recorded.
    /// Every sink keeps by default.
    fn keeps_events(&self) -> bool {
        true
    }

    /// Flushes and publishes the stream. For file-backed sinks this is the
    /// atomic commit point; before `finish` succeeds, no partial artifact
    /// is visible at the target path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error encountered while recording or committing.
    fn finish(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that drops everything — tracing enabled, persistence off.
///
/// Used to collect metrics (which live in the tracer, not the sink)
/// without keeping the event stream: telemetry-only, manifest and timing
/// runs. It keeps nothing, so a tracer over it never builds an event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _record: &TraceRecord) {}

    fn keeps_events(&self) -> bool {
        false
    }
}

/// An in-memory sink retaining records, optionally bounded (oldest records
/// evicted first). The golden-trace tests read campaigns back from it.
#[derive(Debug, Default)]
pub struct RingBufferSink {
    capacity: Option<usize>,
    records: Mutex<VecDeque<TraceRecord>>,
}

impl RingBufferSink {
    /// An unbounded buffer.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A buffer keeping only the most recent `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity: Some(capacity),
            records: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// A copy of the retained records, in sequence order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("ring buffer lock").iter().cloned().collect()
    }

    /// Drains and returns the retained records.
    pub fn take(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("ring buffer lock").drain(..).collect()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.lock().expect("ring buffer lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&self, record: &TraceRecord) {
        let mut records = self.records.lock().expect("ring buffer lock");
        if let Some(capacity) = self.capacity {
            while records.len() >= capacity {
                records.pop_front();
            }
        }
        records.push_back(record.clone());
    }
}

struct JsonlState {
    writer: Option<Box<dyn Write + Send>>,
    error: Option<io::Error>,
    /// The line being written, reused from record to record.
    line: String,
}

/// A sink writing one JSON record per line — atomically.
///
/// Records stream into a scratch file next to the target; only a
/// successful [`TraceSink::finish`] renames it into place. An aborted or
/// failing run therefore never leaves a truncated `.jsonl` at the target
/// path (the scratch file is removed on failure where possible).
pub struct JsonlSink {
    target: PathBuf,
    scratch: PathBuf,
    state: Mutex<JsonlState>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("target", &self.target)
            .field("scratch", &self.scratch)
            .finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Opens a sink that will publish to `target` on a successful finish.
    ///
    /// The scratch file `<target>.tmp` is created eagerly, so an
    /// unwritable path fails here — before any measurement runs.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the scratch file (missing parent
    /// directory, read-only directory, …).
    pub fn create(target: impl AsRef<Path>) -> io::Result<Self> {
        let target = target.as_ref().to_path_buf();
        let scratch = scratch_path(&target);
        let file = File::create(&scratch)?;
        Ok(Self::from_parts(
            Box::new(BufWriter::new(file)),
            scratch,
            target,
        ))
    }

    /// Assembles a sink from an explicit writer and paths. This is the
    /// fault-injection seam: tests pass a writer that fails mid-stream to
    /// prove the target is never left truncated.
    pub fn from_parts(
        writer: Box<dyn Write + Send>,
        scratch: PathBuf,
        target: PathBuf,
    ) -> Self {
        Self {
            target,
            scratch,
            state: Mutex::new(JsonlState {
                writer: Some(writer),
                error: None,
                line: String::new(),
            }),
        }
    }

    /// The path the stream will be published at.
    pub fn target(&self) -> &Path {
        &self.target
    }
}

fn scratch_path(target: &Path) -> PathBuf {
    let mut name = target
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "trace.jsonl".into());
    name.push(".tmp");
    target.with_file_name(name)
}

impl TraceSink for JsonlSink {
    fn record(&self, record: &TraceRecord) {
        let mut guard = self.state.lock().expect("jsonl sink lock");
        let state = &mut *guard;
        if state.error.is_some() {
            return;
        }
        let Some(writer) = state.writer.as_mut() else {
            return;
        };
        state.line.clear();
        record.write_json(&mut state.line);
        state.line.push('\n');
        if let Err(e) = writer.write_all(state.line.as_bytes()) {
            state.error = Some(e);
        }
    }

    fn finish(&self) -> io::Result<()> {
        let mut state = self.state.lock().expect("jsonl sink lock");
        let flushed = match state.writer.as_mut() {
            Some(writer) => writer.flush(),
            None => Ok(()),
        };
        // Drop the writer (closing the file) before renaming or removing.
        state.writer = None;
        if let Some(error) = state.error.take() {
            let _ = std::fs::remove_file(&self.scratch);
            return Err(error);
        }
        if let Err(e) = flushed {
            let _ = std::fs::remove_file(&self.scratch);
            return Err(e);
        }
        std::fs::rename(&self.scratch, &self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceRecord};

    fn record(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            test: Some(0),
            ts_us: 0,
            event: TraceEvent::ProbeIssued { value: seq as f64, speculative: false },
        }
    }

    #[test]
    fn ring_buffer_keeps_order_and_evicts_oldest() {
        let sink = RingBufferSink::with_capacity(2);
        for seq in 0..4 {
            sink.record(&record(seq));
        }
        let seqs: Vec<u64> = sink.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3]);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_publishes_only_on_finish() {
        let dir = std::env::temp_dir().join("cichar_trace_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let target = dir.join("stream.jsonl");
        std::fs::remove_file(&target).ok();
        let sink = JsonlSink::create(&target).expect("writable");
        sink.record(&record(0));
        sink.record(&record(1));
        assert!(!target.exists(), "nothing published before finish");
        sink.finish().expect("commit");
        let text = std::fs::read_to_string(&target).expect("published");
        assert_eq!(text.lines().count(), 2);
        assert!(!scratch_path(&target).exists(), "scratch renamed away");
        std::fs::remove_file(&target).ok();
    }

    #[test]
    fn missing_parent_directory_fails_eagerly() {
        let bogus = std::env::temp_dir()
            .join("cichar_no_such_dir")
            .join("deep")
            .join("stream.jsonl");
        assert!(JsonlSink::create(&bogus).is_err());
    }

    /// A writer that fails after a byte budget — an aborted run mid-write.
    struct DyingWriter {
        budget: usize,
    }

    impl Write for DyingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.budget {
                return Err(io::Error::other("tester power loss"));
            }
            self.budget -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_writer_never_leaves_a_truncated_target() {
        let dir = std::env::temp_dir().join("cichar_trace_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let target = dir.join("dying.jsonl");
        std::fs::remove_file(&target).ok();
        let scratch = scratch_path(&target);
        std::fs::write(&scratch, b"partial").expect("scratch exists");
        let sink = JsonlSink::from_parts(
            Box::new(DyingWriter { budget: 80 }),
            scratch.clone(),
            target.clone(),
        );
        for seq in 0..50 {
            sink.record(&record(seq));
        }
        let err = sink.finish().expect_err("the writer died mid-stream");
        assert_eq!(err.to_string(), "tester power loss");
        assert!(!target.exists(), "no truncated artifact at the target");
        assert!(!scratch.exists(), "scratch cleaned up");
    }

    #[test]
    fn jsonl_lines_match_the_record_serialization() {
        let dir = std::env::temp_dir().join("cichar_trace_sink_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let target = dir.join("lines.jsonl");
        std::fs::remove_file(&target).ok();
        let sink = JsonlSink::create(&target).expect("writable");
        // A long line, then a shorter one: the reused buffer must not
        // leak the first line's tail into the second.
        let long = TraceRecord {
            event: TraceEvent::AlarmRaised {
                alarm: String::from("stall_silence"),
                heartbeat: 12,
                detail: "x".repeat(200),
            },
            ..record(0)
        };
        let records = [long, record(1)];
        for r in &records {
            sink.record(r);
        }
        sink.finish().expect("commit");
        let expected: String = records
            .iter()
            .map(|r| serde_json::to_string(r).expect("serializes") + "\n")
            .collect();
        assert_eq!(std::fs::read_to_string(&target).expect("published"), expected);
        std::fs::remove_file(&target).ok();
    }

    #[test]
    fn null_sink_finishes_cleanly() {
        NullSink.record(&record(0));
        NullSink.finish().expect("trivially ok");
        assert!(!NullSink.keeps_events());
        assert!(RingBufferSink::unbounded().keeps_events(), "sinks keep by default");
    }
}
