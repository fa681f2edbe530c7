//! In-memory span recorder for the traced run.
//!
//! Every span wraps one call into a layer's public API: it records the
//! layer, start and end (nanoseconds since a shared epoch), the enclosing
//! span and the stream or run id. A disabled recorder takes no clock reads
//! and keeps nothing, so the untraced code path costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The layers a span can be attributed to, named after the crates and
/// public calls they time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `build_attack` / `build_benign`.
    AttacksBuild,
    /// `Cpu::new`.
    SimNew,
    /// `Cpu::clone` of a warm template.
    SimFork,
    /// Dropping a finished stream's core (and, in the fleet, its program).
    SimDrop,
    /// `SampledCursor::next_window_into` / `Cpu::run_sampled_with_schedule`.
    SimDetailed,
    /// `Cpu::fast_forward`.
    SimFf,
    /// `Cpu::snapshot` + `Cpu::restore`.
    SimSnapshot,
    /// `Featurizer::featurize_into`; `StreamStats` / `DatasetSink` windows.
    CoreFeaturize,
    /// The detector's scoring call.
    NnInfer,
    /// `SecureModeState::apply_verdict` / `fail_secure` + `Cpu::set_mitigation`.
    DefenseVerdict,
    /// `AmGan::train`.
    CoreGan,
    /// `engineer_features`.
    CoreEngineer,
    /// `AmGan::augment` + EVAX `Detector::train` + sensitivity tuning.
    CoreVaccinate,
    /// PerSpectron `Detector::train` + sensitivity tuning.
    CoreBaseline,
    /// `EvaxPipeline::evaluate_holdout`.
    CoreEval,
}

impl Layer {
    /// Stable span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::AttacksBuild => "attacks.build",
            Layer::SimNew => "sim.new",
            Layer::SimFork => "sim.fork",
            Layer::SimDrop => "sim.drop",
            Layer::SimDetailed => "sim.detailed",
            Layer::SimFf => "sim.ff",
            Layer::SimSnapshot => "sim.snapshot",
            Layer::CoreFeaturize => "core.featurize",
            Layer::NnInfer => "nn.infer",
            Layer::DefenseVerdict => "defense.verdict",
            Layer::CoreGan => "core.gan",
            Layer::CoreEngineer => "core.engineer",
            Layer::CoreVaccinate => "core.vaccinate",
            Layer::CoreBaseline => "core.baseline",
            Layer::CoreEval => "core.eval",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same recorder, or `NO_PARENT`.
    parent: u32,
    /// Stream (fleet), run (collect) or stage-sequence (train) id.
    stream: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time in nanoseconds and call count per layer.
pub struct SelfTimes(BTreeMap<Layer, (u64, u64)>);

impl SelfTimes {
    /// Self time of `layer` in seconds, and its call count (0 if never called).
    pub fn get(&self, layer: Layer) -> (f64, u64) {
        let (ns, n) = self.0.get(&layer).copied().unwrap_or((0, 0));
        (ns as f64 / 1e9, n)
    }

    /// Self time per call of `layer`, in seconds × `scale`; 0 if never called.
    pub fn per_call(&self, layer: Layer, scale: f64) -> f64 {
        match self.get(layer) {
            (_, 0) => 0.0,
            (busy, n) => busy * scale / n as f64,
        }
    }
}

/// Handle of an open span (`None` when recording is off).
#[must_use]
pub struct Open(Option<u32>);

/// Span recorder; one per worker, merged with [`Recorder::absorb`].
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Recorder {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A child recorder sharing this one's epoch and on/off state.
    pub fn fork(&self) -> Self {
        Recorder::new(self.epoch, self.on)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    #[inline]
    pub fn enter(&mut self, layer: Layer, stream: u32) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            stream,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::enter`].
    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            self.spans[idx as usize].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside one span.
    #[inline]
    pub fn time<R>(&mut self, layer: Layer, stream: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(layer, stream);
        let r = f();
        self.exit(open);
        r
    }

    /// Appends another recorder's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Summed duration of the outermost spans (time inside any layer).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::dur)
            .sum()
    }

    /// Self time (span time minus time in its child spans) and call count
    /// per layer.
    pub fn self_times(&self) -> SelfTimes {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<Layer, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let e = out.entry(s.layer).or_default();
            e.0 += s.dur().saturating_sub(*c);
            e.1 += 1;
        }
        SelfTimes(out)
    }

    /// Writes every span as CSV (`id,name,start_ns,end_ns,parent,stream`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,name,start_ns,end_ns,parent,stream")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i},{},{},{},{parent},{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.stream
            )?;
        }
        w.flush()
    }
}
