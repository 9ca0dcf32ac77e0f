//! Chrome trace-event export (loadable in Perfetto) of the traced run's
//! spans: the benchmark's phases, the engine's drain/commit/barrier and
//! lane slices, and the sampled handler calls, one track per kind.

use crate::timed::{track_name, Span, SPAN_CAP, TRACK_ENGINE};
use hvdb_sim::PhaseSlice;
use std::collections::BTreeSet;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes the trace to `path`: the spans and at most [`SPAN_CAP`] engine
/// slices, which share one time origin.
pub fn write(path: &Path, spans: &[Span], slices: &[PhaseSlice]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    let mut tracks = BTreeSet::new();
    write!(f, "{{\"traceEvents\":[")?;
    let mut first = true;
    let mut event = |f: &mut BufWriter<std::fs::File>,
                     name: &str,
                     track: u32,
                     ts: f64,
                     dur: f64| {
        let sep = if first { "" } else { "," };
        first = false;
        tracks.insert(track);
        write!(
            f,
            "{sep}\n{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{track},\"ts\":{ts},\"dur\":{dur}}}"
        )
    };
    for s in spans {
        event(
            &mut f,
            s.name,
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
        )?;
    }
    for s in slices.iter().take(SPAN_CAP) {
        let track = if s.lane == u32::MAX {
            TRACK_ENGINE
        } else {
            TRACK_ENGINE + 1 + s.lane
        };
        event(&mut f, s.phase, track, s.start_us as f64, s.dur_us as f64)?;
    }
    for t in tracks {
        write!(
            f,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"{}\"}}}}",
            track_name(t)
        )?;
    }
    writeln!(f, "\n]}}")?;
    f.flush()
}
