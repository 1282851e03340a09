//! The compiled simulation backend: a netlist lowered once into a flat
//! instruction tape, then executed with a tight dispatch loop.
//!
//! [`CompiledSim`] trades a one-time lowering pass for much cheaper
//! per-cycle work compared to [`Simulator`](crate::Simulator):
//!
//! * **Flat struct-of-arrays tape.** Each combinational node becomes one
//!   fixed-size instruction (opcode + pre-resolved operand slots +
//!   precomputed output mask) in topological order — see
//!   [`Program`](crate::program::Program), which this backend shares with
//!   the lane-batched [`BatchedSim`](crate::BatchedSim) behind an `Arc`,
//!   so cloning a compiled session costs only its state arrays.
//! * **Wires cost nothing.** Wire nodes are aliased to their transitive
//!   driver's value slot at compile time, so the chains of named wires a
//!   lowered design produces generate no instructions and no copies.
//! * **Optional tape optimizer.** [`with_tracking_opt`](Self::with_tracking_opt)
//!   runs the [`opt`](crate::opt) passes (constant folding, CSE, dead-node
//!   elimination) over the tape before execution.
//! * **Compiled label tracking.** The executor is monomorphised over the
//!   tracking mode: with [`TrackMode::Off`] the label code paths are
//!   compiled out entirely, so untracked simulation pays zero label cost.
//! * **Label planes.** Runtime labels are shadow state: no value
//!   computation ever reads one. One value plane can therefore carry
//!   several label planes, each propagated by its own mux rule, and
//!   [`with_both_planes`](CompiledSim::with_both_planes) runs the
//!   conservative and the precise plane in a single tape pass, where
//!   two single-mode engines would each recompute the same values. Each
//!   plane keeps its own slot labels, memory labels and capped violation
//!   stream. A single-mode engine is the one-plane instance of the same
//!   monomorphised dispatch loop; there is no second copy of it.
//! * **No allocation in the hot path.** `tick`/`eval` touch only
//!   preallocated arrays; the register update uses a preallocated
//!   two-phase scratch buffer. (Recording a violation stores a
//!   heap-allocated report, but a design that raises no violations never
//!   allocates after construction.)
//! * **Hoisted run loop.** [`run`](Self::run) dispatches on the tracking
//!   mode once, hoists the settled-state check out of the per-tick path
//!   (only the first iteration can be settled), and hoists the violation
//!   cap comparison to once per run instead of once per push.
//!
//! Semantics are bit-for-bit identical to the interpreting
//! [`Simulator`](crate::Simulator) — values, labels, and the recorded
//! violation stream all match, which the differential test suites
//! enforce. The interpreter remains the reference oracle; this backend is
//! the throughput engine.

use std::marker::PhantomData;
use std::sync::Arc;

use hdl::{mask, Netlist, NodeId, Value};
use ifc_lattice::{Label, SecurityTag};

use crate::backend::{self, RunEngine};
use crate::opt::{self, OptConfig, OptStats};
use crate::program::{push_violation, Op, Program};
use crate::simulator::{AllowedLabel, DEFAULT_VIOLATION_CAP};
use crate::violation::RuntimeViolation;
use crate::TrackMode;

/// The most label planes one engine carries.
const MAX_PLANES: usize = 2;

/// The label planes one instance of the dispatch loop carries. Loops
/// over planes have a compile-time trip count and unroll, so the
/// one-plane instances run exactly the single-mode work.
trait Planes {
    /// The tracking mode of each plane, in plane order.
    const MODES: &'static [TrackMode];
    /// Planes the loop propagates: none with tracking off, which
    /// compiles every label path out.
    const N: usize = if matches!(Self::MODES[0], TrackMode::Off) {
        0
    } else {
        Self::MODES.len()
    };

    /// Whether plane `k`'s mux label follows only the selected arm.
    #[inline(always)]
    fn precise(k: usize) -> bool {
        matches!(Self::MODES[k], TrackMode::Precise)
    }
}

struct Untracked;
struct ConservativeOnly;
struct PreciseOnly;
struct ConservativeAndPrecise;

impl Planes for Untracked {
    const MODES: &'static [TrackMode] = &[TrackMode::Off];
}

impl Planes for ConservativeOnly {
    const MODES: &'static [TrackMode] = &[TrackMode::Conservative];
}

impl Planes for PreciseOnly {
    const MODES: &'static [TrackMode] = &[TrackMode::Precise];
}

impl Planes for ConservativeAndPrecise {
    const MODES: &'static [TrackMode] = &[TrackMode::Conservative, TrackMode::Precise];
}

/// Evaluates `$body` with `$P` naming the [`Planes`] instance of `$sim`.
macro_rules! with_planes {
    ($sim:expr, $P:ident => $body:expr) => {
        match $sim.planes {
            [TrackMode::Off] => {
                type $P = Untracked;
                $body
            }
            [TrackMode::Conservative] => {
                type $P = ConservativeOnly;
                $body
            }
            [TrackMode::Precise] => {
                type $P = PreciseOnly;
                $body
            }
            _ => {
                type $P = ConservativeAndPrecise;
                $body
            }
        }
    };
}

/// One label plane's recorded violations.
#[derive(Debug, Clone, Default)]
struct PlaneLog {
    violations: Vec<RuntimeViolation>,
    /// Remaining room under the cap, re-derived by the shared run loop
    /// (see [`backend::RunEngine`]) before each recording propagation.
    room: usize,
    truncated: bool,
}

impl PlaneLog {
    fn push(&mut self, v: RuntimeViolation) {
        push_violation(&mut self.violations, &mut self.room, &mut self.truncated, v);
    }
}

/// Plane `k`'s label of slot `s`: labels are plane-interleaved.
#[inline(always)]
fn plane_label<P: Planes>(labels: &[Label], s: usize, k: usize) -> Label {
    labels[s * P::N + k]
}

/// Copies operand `a`'s label on every plane.
#[inline(always)]
fn unary<P: Planes>(labels: &[Label], a: usize, out: &mut [Label; MAX_PLANES]) {
    for (k, l) in out.iter_mut().enumerate().take(P::N) {
        *l = plane_label::<P>(labels, a, k);
    }
}

/// Joins operands `a` and `b`'s labels on every plane.
#[inline(always)]
fn binary<P: Planes>(labels: &[Label], a: usize, b: usize, out: &mut [Label; MAX_PLANES]) {
    for (k, l) in out.iter_mut().enumerate().take(P::N) {
        *l = plane_label::<P>(labels, a, k).join(plane_label::<P>(labels, b, k));
    }
}

/// A downgrade gate's result label, or `None` when the nonmalleable rule
/// refuses it.
fn downgrade(op: Op, from: Label, to: Label, principal: Label) -> Option<Label> {
    if op == Op::Declassify {
        ifc_lattice::declassify(from, to, principal).ok()
    } else {
        ifc_lattice::endorse(from, to, principal).ok()
    }
}

/// The runtime release gate over settled slots, against the precompiled
/// check table, on every plane. The allowed label depends on values
/// only, so it is resolved once per check. Shared between the recording
/// propagation and the settled-state fast path in [`CompiledSim::tick`].
fn run_output_checks<P: Planes>(
    program: &Program,
    values: &[Value],
    labels: &[Label],
    cycle: u64,
    logs: &mut [PlaneLog],
) {
    for check in &program.output_checks {
        let allowed = match &check.allowed {
            AllowedLabel::Const(l) => *l,
            AllowedLabel::Dynamic(expr) => {
                let mut resolve = |sig: NodeId| values[program.slot_of[sig.index()] as usize];
                expr.eval(&mut resolve)
            }
        };
        for (k, log) in logs.iter_mut().enumerate().take(P::N) {
            let label = plane_label::<P>(labels, check.slot as usize, k);
            if !label.flows_to(allowed) {
                log.push(RuntimeViolation::OutputLeak {
                    cycle,
                    port: check.port.clone(),
                    label,
                    allowed,
                });
            }
        }
    }
}

/// Compiled-tape simulation backend.
///
/// Drop-in alternative to [`Simulator`](crate::Simulator) with identical
/// observable behaviour (same drive/eval/tick protocol, same values,
/// labels, and violation stream) but a much faster cycle loop. See the
/// [module docs](self) for how it gets there.
#[derive(Debug, Clone)]
pub struct CompiledSim {
    program: Arc<Program>,
    /// The tracking mode of each label plane, in plane order.
    planes: &'static [TrackMode],
    /// Per-slot settled values. Register and input state lives here
    /// directly — there is no separate state array to copy from.
    values: Vec<Value>,
    /// Per-slot runtime labels, parallel to `values` and
    /// plane-interleaved: plane `k` of slot `s` is at `s * planes + k`.
    labels: Vec<Label>,
    mem_state: Vec<Vec<Value>>,
    /// Per-cell runtime labels, plane-interleaved like `labels`.
    mem_labels: Vec<Vec<Label>>,
    /// Two-phase clock-edge scratch (preallocated; see [`tick`](Self::tick)).
    reg_scratch: Vec<Value>,
    reg_label_scratch: Vec<Label>,
    clean: bool,
    cycle: u64,
    /// One violation stream per label plane; the cap applies to each.
    logs: Vec<PlaneLog>,
    violation_cap: usize,
}

/// [`RunEngine`] adapter binding the shared settled-state run loop to a
/// `CompiledSim` monomorphised over its label planes.
struct CompiledEngine<'a, P: Planes>(&'a mut CompiledSim, PhantomData<P>);

impl<P: Planes> RunEngine for CompiledEngine<'_, P> {
    fn is_clean(&self) -> bool {
        self.0.clean
    }

    fn set_dirty(&mut self) {
        self.0.clean = false;
    }

    fn refresh_room(&mut self) {
        self.0.refresh_room();
    }

    fn settled_scan(&mut self) {
        self.0.refresh_room();
        self.0.record_settled_violations::<P>();
    }

    fn exec_record(&mut self) {
        self.0.exec::<P>(true);
    }

    fn edge(&mut self) {
        self.0.clock_edge::<P>();
    }
}

impl CompiledSim {
    /// Compiles a netlist with the default conservative tracking.
    #[must_use]
    pub fn new(net: Netlist) -> CompiledSim {
        CompiledSim::with_tracking(net, TrackMode::default())
    }

    /// Compiles a netlist for the given tracking mode, with no optimizer
    /// passes (the tape runs exactly as lowered).
    #[must_use]
    pub fn with_tracking(net: Netlist, mode: TrackMode) -> CompiledSim {
        CompiledSim::with_tracking_opt(net, mode, &OptConfig::none())
    }

    /// Compiles a netlist and runs the configured optimizer passes over
    /// the tape before execution.
    #[must_use]
    pub fn with_tracking_opt(net: Netlist, mode: TrackMode, config: &OptConfig) -> CompiledSim {
        let mut program = Program::compile(net, mode);
        opt::optimize(&mut program, config);
        let planes = match mode {
            TrackMode::Off => Untracked::MODES,
            TrackMode::Conservative => ConservativeOnly::MODES,
            TrackMode::Precise => PreciseOnly::MODES,
        };
        CompiledSim::from_program(Arc::new(program), planes)
    }

    /// Compiles a netlist, with no optimizer passes, into one engine that
    /// carries two label planes over one value plane: conservative
    /// (plane 0) and precise (plane 1). One tape pass per cycle does the
    /// work of a conservative and a precise engine fed the same stimulus;
    /// each plane's labels and violations equal that engine's, and the
    /// values equal those of every tracking mode, `Off` included.
    ///
    /// Plane 0 is what the single-plane accessors report
    /// ([`mode`](Self::mode), [`peek_label`](Self::peek_label),
    /// [`violations`](Self::violations), and the
    /// [`SimBackend`](crate::SimBackend) view); the `plane_*` accessors
    /// reach either plane. Label writes apply to both planes.
    #[must_use]
    pub fn with_both_planes(net: Netlist) -> CompiledSim {
        let program = Program::compile(net, TrackMode::Conservative);
        CompiledSim::from_program(Arc::new(program), ConservativeAndPrecise::MODES)
    }

    /// Instantiates one lane of execution state over a shared program.
    fn from_program(program: Arc<Program>, planes: &'static [TrackMode]) -> CompiledSim {
        let stride = planes.len();
        let reg_count = program.regs.len();
        CompiledSim {
            values: program.init_values.clone(),
            labels: vec![Label::PUBLIC_TRUSTED; program.num_slots * stride],
            mem_state: program.mem_init.clone(),
            mem_labels: program
                .mem_init
                .iter()
                .map(|cells| vec![Label::PUBLIC_TRUSTED; cells.len() * stride])
                .collect(),
            reg_scratch: vec![0; reg_count],
            reg_label_scratch: vec![Label::PUBLIC_TRUSTED; reg_count * stride],
            clean: false,
            cycle: 0,
            logs: vec![PlaneLog::default(); stride],
            violation_cap: DEFAULT_VIOLATION_CAP,
            planes,
            program,
        }
    }

    /// The wrapped netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.program.net
    }

    /// The tracking mode this backend was compiled for (plane 0's mode
    /// on a [`with_both_planes`](Self::with_both_planes) engine).
    #[must_use]
    pub fn mode(&self) -> TrackMode {
        self.planes[0]
    }

    /// The tracking mode of each label plane, in plane order: one entry
    /// for a single-mode engine, `[Conservative, Precise]` for a
    /// [`with_both_planes`](Self::with_both_planes) engine.
    #[must_use]
    pub fn label_planes(&self) -> &'static [TrackMode] {
        self.planes
    }

    /// The current cycle count (number of completed [`tick`](Self::tick)s).
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// All violations the tracking logic has raised so far (plane 0).
    #[must_use]
    pub fn violations(&self) -> &[RuntimeViolation] {
        self.plane_violations(0)
    }

    /// All violations one label plane has raised so far.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range (see
    /// [`label_planes`](Self::label_planes)).
    #[must_use]
    pub fn plane_violations(&self, plane: usize) -> &[RuntimeViolation] {
        &self.logs[plane].violations
    }

    /// Whether violations were dropped at the cap (plane 0; see
    /// [`set_violation_cap`](Self::set_violation_cap)).
    #[must_use]
    pub fn violations_truncated(&self) -> bool {
        self.plane_violations_truncated(0)
    }

    /// Whether one label plane's violations were dropped at the cap.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    #[must_use]
    pub fn plane_violations_truncated(&self, plane: usize) -> bool {
        self.logs[plane].truncated
    }

    /// Bounds the recorded violation stream of every plane, mirroring
    /// [`Simulator::set_violation_cap`](crate::Simulator::set_violation_cap).
    pub fn set_violation_cap(&mut self, cap: usize) {
        self.violation_cap = cap;
    }

    /// Number of instructions on the compiled tape (diagnostic; wires and
    /// state nodes contribute none, and optimizer passes may have removed
    /// more).
    #[must_use]
    pub fn tape_len(&self) -> usize {
        self.program.tape.len()
    }

    /// Human-readable listing of the (possibly optimized) instruction
    /// tape; round-trips exactly through [`crate::disasm::parse`].
    #[must_use]
    pub fn disassemble(&self) -> String {
        crate::disasm::render(&self.program.tape)
    }

    /// FNV-1a hash over every tape column; matches
    /// [`crate::disasm::ParsedTape::fingerprint`] for an exact round
    /// trip.
    #[must_use]
    pub fn tape_fingerprint(&self) -> u64 {
        crate::disasm::fingerprint(&self.program.tape)
    }

    /// Statistics of the optimizer passes that ran at construction
    /// (empty for [`with_tracking`](Self::with_tracking)).
    #[must_use]
    pub fn opt_stats(&self) -> &OptStats {
        &self.program.opt_stats
    }

    /// Instruction counts per opcode name (diagnostic, sorted descending).
    #[must_use]
    pub fn op_histogram(&self) -> Vec<(&'static str, usize)> {
        self.program.op_histogram()
    }

    /// Number of maximal same-opcode runs on the tape (diagnostic; the
    /// batched executor dispatches once per run).
    #[must_use]
    pub fn op_run_count(&self) -> usize {
        let ops = &self.program.tape.ops;
        ops.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!ops.is_empty())
    }

    /// Drives an input port.
    ///
    /// # Panics
    ///
    /// Panics if no input port has that name.
    pub fn set(&mut self, name: &str, value: Value) {
        let id = self.program.resolve_input(name);
        self.set_node(id, value);
    }

    /// Drives an input port by node id.
    ///
    /// # Panics
    ///
    /// Panics if the input was pinned to a constant by the optimizer
    /// configuration.
    pub fn set_node(&mut self, id: NodeId, value: Value) {
        assert!(
            !self.program.pinned[id.index()],
            "input node {id:?} is pinned to a constant by the optimizer config"
        );
        let width = self.program.node_widths[id.index()];
        self.values[self.program.slot_of[id.index()] as usize] = mask(value, width);
        self.clean = false;
    }

    /// Sets the runtime label accompanying an input's data (defaults to
    /// `(P,T)`) on every plane. A no-op with tracking off, matching the
    /// interpreter (whose labels stay at their initial public-trusted
    /// state).
    pub fn set_label(&mut self, name: &str, label: Label) {
        let id = self.program.resolve_input(name);
        if self.mode() != TrackMode::Off {
            let at = self.label_index(id, 0);
            self.labels[at..at + self.planes.len()].fill(label);
        }
        self.clean = false;
    }

    /// Reads a signal's settled value by port or node name.
    ///
    /// # Panics
    ///
    /// Panics if no port or named node matches.
    pub fn peek(&mut self, name: &str) -> Value {
        let id = self.program.lookup(name);
        self.peek_node(id)
    }

    /// Reads a signal's settled runtime label (plane 0).
    pub fn peek_label(&mut self, name: &str) -> Label {
        let id = self.program.lookup(name);
        self.peek_node_label(id)
    }

    /// Reads a settled value by node id.
    pub fn peek_node(&mut self, id: NodeId) -> Value {
        self.eval();
        self.values[self.program.slot_of[id.index()] as usize]
    }

    /// Reads a settled runtime label by node id (plane 0).
    pub fn peek_node_label(&mut self, id: NodeId) -> Label {
        self.peek_node_plane_label(0, id)
    }

    /// Reads one label plane's settled runtime label by node id.
    ///
    /// # Panics
    ///
    /// Panics if `plane` is out of range.
    pub fn peek_node_plane_label(&mut self, plane: usize, id: NodeId) -> Label {
        self.eval();
        self.labels[self.label_index(id, plane)]
    }

    /// Reads a memory cell directly (for test assertions).
    #[must_use]
    pub fn mem_cell(&self, mem: usize, addr: usize) -> Value {
        self.mem_state[mem][addr]
    }

    /// Reads a memory cell's runtime label directly (plane 0).
    #[must_use]
    pub fn mem_cell_label(&self, mem: usize, addr: usize) -> Label {
        self.mem_cell_plane_label(0, mem, addr)
    }

    /// Reads one label plane's runtime label of a memory cell.
    ///
    /// # Panics
    ///
    /// Panics if `plane`, `mem` or `addr` is out of range.
    #[must_use]
    pub fn mem_cell_plane_label(&self, plane: usize, mem: usize, addr: usize) -> Label {
        assert!(plane < self.planes.len(), "no label plane {plane}");
        self.mem_labels[mem][addr * self.planes.len() + plane]
    }

    /// Finds a memory's index by its declared name.
    #[must_use]
    pub fn mem_index(&self, name: &str) -> Option<usize> {
        self.program.net.mems.iter().position(|m| m.name == name)
    }

    /// Sets a memory cell's runtime label directly on every plane
    /// (provisioned secrets; see
    /// [`Simulator::set_mem_cell_label`](crate::Simulator::set_mem_cell_label)).
    ///
    /// # Panics
    ///
    /// Panics if `mem` or `addr` is out of range.
    pub fn set_mem_cell_label(&mut self, mem: usize, addr: usize, label: Label) {
        let stride = self.planes.len();
        self.mem_labels[mem][addr * stride..(addr + 1) * stride].fill(label);
        self.clean = false;
    }

    /// Settles combinational logic for the current inputs. Idempotent.
    pub fn eval(&mut self) {
        if self.clean {
            return;
        }
        with_planes!(self, P => self.exec::<P>(false));
        self.clean = true;
    }

    /// Advances one clock cycle: settles combinational logic (recording
    /// any violations), updates registers and memories, then increments
    /// the cycle counter.
    pub fn tick(&mut self) {
        // The settled fast path (see `backend::tick_engine`): after an
        // `eval`, a recording propagation would recompute identical
        // values and labels, so only the violation scan — the downgrade
        // gates and the output release checks — re-runs. This is the
        // common shape under a transaction driver, which reads the
        // output handshake (forcing an eval) in the same cycle it then
        // clocks.
        with_planes!(self, P => backend::tick_engine(&mut CompiledEngine::<P>(self, PhantomData)));
    }

    /// Runs `n` clock cycles with the current inputs.
    ///
    /// Semantically `n` repeated [`tick`](Self::tick)s, but the loop is
    /// monomorphised once per label-plane set, the settled-state check is
    /// hoisted (only the first iteration can be settled), and the
    /// violation cap is re-derived once per run instead of per tick
    /// (the shared `backend::run_engine` loop).
    pub fn run(&mut self, n: u64) {
        with_planes!(self, P => backend::run_engine(&mut CompiledEngine::<P>(self, PhantomData), n));
    }

    /// Index of plane `plane`'s label of node `id` in `labels`.
    fn label_index(&self, id: NodeId, plane: usize) -> usize {
        assert!(plane < self.planes.len(), "no label plane {plane}");
        self.program.slot_of[id.index()] as usize * self.planes.len() + plane
    }

    /// Re-derives every plane's remaining violation room from the cap.
    fn refresh_room(&mut self) {
        for log in &mut self.logs {
            log.room = self.violation_cap.saturating_sub(log.violations.len());
        }
    }

    /// The clock edge: registers and memory write ports observe settled
    /// pre-edge state via a two-phase snapshot, then the cycle counter
    /// advances.
    fn clock_edge<P: Planes>(&mut self) {
        let CompiledSim {
            program,
            values,
            labels,
            mem_state,
            mem_labels,
            reg_scratch,
            reg_label_scratch,
            cycle,
            ..
        } = self;
        // Phase 1: snapshot every register's next value while all slots
        // still hold settled combinational state. Registers live in the
        // same slot array their readers see, so installing in-place
        // without the snapshot would let one register's update corrupt
        // another's (or a write port's) view of this cycle.
        for (i, r) in program.regs.iter().enumerate() {
            reg_scratch[i] = values[r.src as usize] & r.mask;
        }
        if P::N > 0 {
            for (i, r) in program.regs.iter().enumerate() {
                for k in 0..P::N {
                    reg_label_scratch[i * P::N + k] = plane_label::<P>(labels, r.src as usize, k);
                }
            }
        }
        // Memory write ports next, in statement order — they too must
        // observe the settled pre-edge values (address/data/enable may
        // read register slots).
        for wp in &program.write_ports {
            if values[wp.en as usize] & 1 == 1 {
                let mem = wp.mem as usize;
                let depth = mem_state[mem].len();
                let addr = match program.mem_addr_mask[mem] {
                    Some(amask) => (values[wp.addr as usize] as usize) & amask,
                    None => (values[wp.addr as usize] as usize) % depth,
                };
                mem_state[mem][addr] = values[wp.data as usize];
                for k in 0..P::N {
                    let label = plane_label::<P>(labels, wp.data as usize, k)
                        .join(plane_label::<P>(labels, wp.addr as usize, k))
                        .join(plane_label::<P>(labels, wp.en as usize, k));
                    mem_labels[mem][addr * P::N + k] = label;
                }
            }
        }
        // Phase 2: install the snapshot.
        for (i, r) in program.regs.iter().enumerate() {
            values[r.dst as usize] = reg_scratch[i];
        }
        if P::N > 0 {
            for (i, r) in program.regs.iter().enumerate() {
                for k in 0..P::N {
                    labels[r.dst as usize * P::N + k] = reg_label_scratch[i * P::N + k];
                }
            }
        }
        *cycle += 1;
    }

    /// Records exactly the violations a recording propagation would raise
    /// over the current *settled* state, without re-executing the tape:
    /// each downgrade gate's accept/reject is recomputed from its settled
    /// operands (in tape order, matching the recording order of a full
    /// pass), then the output release checks run. Only valid when `clean`.
    fn record_settled_violations<P: Planes>(&mut self) {
        if P::N == 0 {
            return;
        }
        let CompiledSim {
            program,
            values,
            labels,
            logs,
            cycle,
            ..
        } = self;
        let tape = &program.tape;
        for &i in &program.downgrades {
            let i = i as usize;
            let to = Label::from(SecurityTag::from_bits(tape.aux[i] as u8));
            let principal = Label::from(SecurityTag::from_bits(values[tape.b[i] as usize] as u8));
            for (k, log) in logs.iter_mut().enumerate().take(P::N) {
                let from = plane_label::<P>(labels, tape.a[i] as usize, k);
                if downgrade(tape.ops[i], from, to, principal).is_none() {
                    log.push(RuntimeViolation::DowngradeRejected {
                        cycle: *cycle,
                        node: NodeId::from_raw(tape.c[i]),
                        from,
                        to,
                        principal,
                    });
                }
            }
        }
        run_output_checks::<P>(program, values, labels, *cycle, logs);
    }

    /// The dispatch loop, one instance per label-plane set `P`: with no
    /// planes the label code compiles out, and each plane applies its own
    /// mux rule. Violations are recorded only when `record` (i.e. from
    /// [`tick`](Self::tick), never from [`eval`](Self::eval)), matching
    /// the interpreter.
    #[allow(clippy::too_many_lines)]
    fn exec<P: Planes>(&mut self, record: bool) {
        // Disjoint field borrows: the program is read-only while slots,
        // memories, and the violation streams are written.
        let CompiledSim {
            program,
            values,
            labels,
            mem_state,
            mem_labels,
            logs,
            cycle,
            ..
        } = self;
        let tape = &program.tape;
        // Reslicing every tape column to the common length lets the
        // compiler prove the per-instruction column indexing in bounds
        // and drop the checks from the dispatch loop.
        let n = tape.ops.len();
        let ops = &tape.ops[..n];
        let col_dst = &tape.dst[..n];
        let col_a = &tape.a[..n];
        let col_b = &tape.b[..n];
        let col_c = &tape.c[..n];
        let col_aux = &tape.aux[..n];
        let col_mask = &tape.out_mask[..n];
        for i in 0..n {
            let a = col_a[i] as usize;
            let b = col_b[i] as usize;
            let mut label = [Label::PUBLIC_TRUSTED; MAX_PLANES];
            let value = match ops[i] {
                Op::Not => {
                    unary::<P>(labels, a, &mut label);
                    !values[a]
                }
                Op::ReduceOr => {
                    unary::<P>(labels, a, &mut label);
                    Value::from(values[a] != 0)
                }
                Op::ReduceAnd => {
                    unary::<P>(labels, a, &mut label);
                    Value::from(values[a] == col_aux[i])
                }
                Op::ReduceXor => {
                    unary::<P>(labels, a, &mut label);
                    Value::from(values[a].count_ones() % 2 == 1)
                }
                Op::And => {
                    binary::<P>(labels, a, b, &mut label);
                    values[a] & values[b]
                }
                Op::Or => {
                    binary::<P>(labels, a, b, &mut label);
                    values[a] | values[b]
                }
                Op::Xor => {
                    binary::<P>(labels, a, b, &mut label);
                    values[a] ^ values[b]
                }
                Op::Add => {
                    binary::<P>(labels, a, b, &mut label);
                    values[a].wrapping_add(values[b])
                }
                Op::Sub => {
                    binary::<P>(labels, a, b, &mut label);
                    values[a].wrapping_sub(values[b])
                }
                Op::Eq => {
                    binary::<P>(labels, a, b, &mut label);
                    Value::from(values[a] == values[b])
                }
                Op::Ne => {
                    binary::<P>(labels, a, b, &mut label);
                    Value::from(values[a] != values[b])
                }
                Op::Lt => {
                    binary::<P>(labels, a, b, &mut label);
                    Value::from(values[a] < values[b])
                }
                Op::Ge => {
                    binary::<P>(labels, a, b, &mut label);
                    Value::from(values[a] >= values[b])
                }
                Op::TagLeq => {
                    binary::<P>(labels, a, b, &mut label);
                    let la = Label::from(SecurityTag::from_bits(values[a] as u8));
                    let lb = Label::from(SecurityTag::from_bits(values[b] as u8));
                    Value::from(la.flows_to(lb))
                }
                Op::TagJoin => {
                    binary::<P>(labels, a, b, &mut label);
                    let la = Label::from(SecurityTag::from_bits(values[a] as u8));
                    let lb = Label::from(SecurityTag::from_bits(values[b] as u8));
                    Value::from(SecurityTag::from(la.join(lb)).bits())
                }
                Op::TagMeet => {
                    binary::<P>(labels, a, b, &mut label);
                    let la = Label::from(SecurityTag::from_bits(values[a] as u8));
                    let lb = Label::from(SecurityTag::from_bits(values[b] as u8));
                    Value::from(SecurityTag::from(la.meet(lb)).bits())
                }
                Op::Mux => {
                    let c = col_c[i] as usize;
                    let sel = values[a] & 1;
                    for (k, l) in label.iter_mut().enumerate().take(P::N) {
                        let l_sel = plane_label::<P>(labels, a, k);
                        *l = if P::precise(k) {
                            let arm = if sel == 1 { b } else { c };
                            l_sel.join(plane_label::<P>(labels, arm, k))
                        } else {
                            l_sel
                                .join(plane_label::<P>(labels, b, k))
                                .join(plane_label::<P>(labels, c, k))
                        };
                    }
                    if sel == 1 {
                        values[b]
                    } else {
                        values[c]
                    }
                }
                Op::Slice => {
                    unary::<P>(labels, a, &mut label);
                    values[a] >> b
                }
                Op::Cat => {
                    binary::<P>(labels, a, b, &mut label);
                    (values[a] << col_c[i]) | values[b]
                }
                Op::MemRead => {
                    let depth = mem_state[b].len();
                    let addr = match program.mem_addr_mask[b] {
                        Some(amask) => (values[a] as usize) & amask,
                        None => (values[a] as usize) % depth,
                    };
                    for (k, l) in label.iter_mut().enumerate().take(P::N) {
                        *l = mem_labels[b][addr * P::N + k].join(plane_label::<P>(labels, a, k));
                    }
                    mem_state[b][addr]
                }
                Op::Declassify | Op::Endorse => {
                    if P::N > 0 {
                        let to = Label::from(SecurityTag::from_bits(col_aux[i] as u8));
                        let principal = Label::from(SecurityTag::from_bits(values[b] as u8));
                        for (k, l) in label.iter_mut().enumerate().take(P::N) {
                            let from = plane_label::<P>(labels, a, k);
                            // A refused downgrade keeps the restrictive
                            // label, same as the interpreter.
                            *l = downgrade(ops[i], from, to, principal).unwrap_or_else(|| {
                                if record {
                                    logs[k].push(RuntimeViolation::DowngradeRejected {
                                        cycle: *cycle,
                                        node: NodeId::from_raw(col_c[i]),
                                        from,
                                        to,
                                        principal,
                                    });
                                }
                                from
                            });
                        }
                    }
                    values[a]
                }
            };
            let dst = col_dst[i] as usize;
            values[dst] = value & col_mask[i];
            for (k, &l) in label.iter().enumerate().take(P::N) {
                labels[dst * P::N + k] = l;
            }
        }

        // The runtime release gate, against the precompiled check table.
        if record && P::N > 0 {
            run_output_checks::<P>(program, values, labels, *cycle, logs);
        }
    }
}
