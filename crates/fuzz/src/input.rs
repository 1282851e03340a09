//! One fuzz input: a spec, its surgery, and the tenant attack programs —
//! plus generation, coverage-guided mutation, and the corpus JSON codec.
//!
//! The codec is strict and total: any parsed input is [`DesignSpec::normalize`]d
//! and clamped onto the generator's grid, so a corpus file can never
//! build an out-of-family design no matter what edits it went through.

use hdl::json::Json;

use crate::program::{gen_attack_op, gen_program, gen_programs, AttackOp, TenantProgram, MAX_OPS};
use crate::rng::FuzzRng;
use crate::spec::{gen_spec, DebugPort, DesignSpec};
use crate::surgery::{gen_op, gen_surgery, SurgeryOp};

/// One complete fuzz input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzInput {
    /// The draw seed this input descends from (provenance; reports print
    /// it so any corpus entry reproduces from the artifact alone).
    pub seed: u64,
    /// The generated design family member.
    pub spec: DesignSpec,
    /// Netlist surgery applied after generation.
    pub surgery: Vec<SurgeryOp>,
    /// One attack program per tenant.
    pub programs: Vec<TenantProgram>,
}

/// Draws a fresh input.
#[must_use]
pub fn gen_input(seed: u64) -> FuzzInput {
    let mut rng = FuzzRng::new(seed);
    let spec = gen_spec(&mut rng);
    let surgery = gen_surgery(&mut rng);
    let programs = gen_programs(&mut rng, usize::from(spec.tenants));
    FuzzInput {
        seed,
        spec,
        surgery,
        programs,
    }
}

/// Mutates an interesting input into a neighbour. Structure-aware: flips
/// one spec knob, edits the surgery list, or edits one tenant's program.
/// Never introduces the known-bad class (only the shrinker demo plants
/// it), but preserves it if the parent already carries it.
#[must_use]
pub fn mutate(parent: &FuzzInput, rng: &mut FuzzRng) -> FuzzInput {
    let mut child = parent.clone();
    child.seed = rng.next_u64();
    match rng.below(6) {
        // Flip one spec knob and renormalize.
        0 => {
            match rng.below(7) {
                0 => child.spec.width = *rng.pick(&crate::spec::WIDTHS),
                1 => child.spec.depth = rng.range(1, 4) as u8,
                2 => child.spec.key_cells = if rng.chance(1, 2) { 2 } else { 4 },
                3 => child.spec.guard_writes = !child.spec.guard_writes,
                4 => child.spec.declassify_out = !child.spec.declassify_out,
                5 => {
                    child.spec.debug_port = match rng.below(3) {
                        0 => DebugPort::None,
                        1 => DebugPort::Supervised,
                        _ => DebugPort::Open,
                    };
                }
                _ => {
                    if !child.spec.mix_ops.is_empty() {
                        let i = rng.below(child.spec.mix_ops.len());
                        child.spec.mix_ops[i] = rng.below(4) as u8;
                    }
                }
            }
            child.spec.normalize();
            // The program list tracks the tenant count.
            resize_programs(&mut child, rng);
        }
        // Append a surgery op.
        1 => {
            if child.surgery.len() < 6 {
                child.surgery.push(gen_op(rng));
            }
        }
        // Drop or replace a surgery op.
        2 => {
            if child.surgery.is_empty() {
                child.surgery.push(gen_op(rng));
            } else {
                let i = rng.below(child.surgery.len());
                if rng.chance(1, 2) {
                    child.surgery.remove(i);
                } else {
                    child.surgery[i] = gen_op(rng);
                }
            }
        }
        // Append an op to one tenant's program.
        3 => {
            if let Some(p) = pick_program(&mut child, rng) {
                if p.ops.len() < MAX_OPS {
                    p.ops.push(gen_attack_op(rng));
                }
            }
        }
        // Drop or replace one program op.
        4 => {
            if let Some(p) = pick_program(&mut child, rng) {
                if p.ops.is_empty() {
                    p.ops.push(gen_attack_op(rng));
                } else {
                    let i = rng.below(p.ops.len());
                    if rng.chance(1, 2) {
                        p.ops.remove(i);
                    } else {
                        p.ops[i] = gen_attack_op(rng);
                    }
                }
            }
        }
        // Regenerate one tenant's whole program.
        _ => {
            if let Some(p) = pick_program(&mut child, rng) {
                *p = gen_program(rng);
            }
        }
    }
    child
}

fn pick_program<'a>(input: &'a mut FuzzInput, rng: &mut FuzzRng) -> Option<&'a mut TenantProgram> {
    if input.programs.is_empty() {
        return None;
    }
    let i = rng.below(input.programs.len());
    input.programs.get_mut(i)
}

fn resize_programs(input: &mut FuzzInput, rng: &mut FuzzRng) {
    let want = usize::from(input.spec.tenants);
    while input.programs.len() < want {
        input.programs.push(gen_program(rng));
    }
    input.programs.truncate(want.max(1));
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

fn op_to_json(op: &AttackOp) -> Json {
    match *op {
        AttackOp::Submit { slot, data } => Json::obj(vec![
            ("op", Json::Str("submit".into())),
            ("slot", Json::U64(u64::from(slot))),
            ("data", Json::U64(data)),
        ]),
        AttackOp::WriteKey {
            addr,
            data,
            supervisor,
        } => Json::obj(vec![
            ("op", Json::Str("write-key".into())),
            ("addr", Json::U64(u64::from(addr))),
            ("data", Json::U64(data)),
            ("supervisor", Json::Bool(supervisor)),
        ]),
        AttackOp::Alloc { cell } => Json::obj(vec![
            ("op", Json::Str("alloc".into())),
            ("cell", Json::U64(u64::from(cell))),
        ]),
        AttackOp::WriteCfg { value } => Json::obj(vec![
            ("op", Json::Str("write-cfg".into())),
            ("value", Json::U64(u64::from(value))),
        ]),
        AttackOp::ReadDebug { sel } => Json::obj(vec![
            ("op", Json::Str("read-debug".into())),
            ("sel", Json::U64(u64::from(sel))),
        ]),
        AttackOp::Idle { cycles } => Json::obj(vec![
            ("op", Json::Str("idle".into())),
            ("cycles", Json::U64(u64::from(cycles))),
        ]),
    }
}

fn surgery_to_json(op: &SurgeryOp) -> Json {
    match *op {
        SurgeryOp::StuckTagJoin { site, keep_b } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("site", Json::U64(u64::from(site))),
            ("keep_b", Json::Bool(keep_b)),
        ]),
        SurgeryOp::ConstGuard { site, allow } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("site", Json::U64(u64::from(site))),
            ("allow", Json::Bool(allow)),
        ]),
        SurgeryOp::WidenDeclassify { site } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("site", Json::U64(u64::from(site))),
        ]),
        SurgeryOp::DropMux { site, keep_t } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("site", Json::U64(u64::from(site))),
            ("keep_t", Json::Bool(keep_t)),
        ]),
        SurgeryOp::RerouteOutput { out, back } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("out", Json::U64(u64::from(out))),
            ("back", Json::U64(u64::from(back))),
        ]),
        SurgeryOp::RelabelOutput { out } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("out", Json::U64(u64::from(out))),
        ]),
        SurgeryOp::DeadConst { wide } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("wide", Json::Bool(wide)),
        ]),
        SurgeryOp::SpoofInputLabel { input } => Json::obj(vec![
            ("class", Json::Str(op.class().into())),
            ("input", Json::U64(u64::from(input))),
        ]),
    }
}

impl FuzzInput {
    /// Renders the corpus JSON document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::U64(self.seed)),
            (
                "spec",
                Json::obj(vec![
                    ("width", Json::U64(u64::from(self.spec.width))),
                    ("depth", Json::U64(u64::from(self.spec.depth))),
                    ("key_cells", Json::U64(u64::from(self.spec.key_cells))),
                    ("guard_writes", Json::Bool(self.spec.guard_writes)),
                    ("declassify_out", Json::Bool(self.spec.declassify_out)),
                    ("stall_gate", Json::Bool(self.spec.stall_gate)),
                    ("debug_port", Json::Str(self.spec.debug_port.key().into())),
                    ("cfg_reg", Json::Bool(self.spec.cfg_reg)),
                    (
                        "mix_ops",
                        Json::Arr(
                            self.spec
                                .mix_ops
                                .iter()
                                .map(|&op| Json::U64(u64::from(op)))
                                .collect(),
                        ),
                    ),
                    ("tenants", Json::U64(u64::from(self.spec.tenants))),
                ]),
            ),
            (
                "surgery",
                Json::Arr(self.surgery.iter().map(surgery_to_json).collect()),
            ),
            (
                "programs",
                Json::Arr(
                    self.programs
                        .iter()
                        .map(|p| Json::Arr(p.ops.iter().map(op_to_json).collect()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a corpus JSON document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field. A successfully parsed input
    /// is always normalized onto the generator grid.
    pub fn from_json(doc: &Json) -> Result<FuzzInput, String> {
        let seed = doc.field_as("seed", Json::as_u64)?;
        let spec_doc = doc.field("spec")?;
        let mut spec = DesignSpec {
            width: spec_doc.field_as("width", Json::as_u64)? as u16,
            depth: spec_doc.field_as("depth", Json::as_u64)? as u8,
            key_cells: spec_doc.field_as("key_cells", Json::as_u64)? as u8,
            guard_writes: spec_doc.field_as("guard_writes", Json::as_bool)?,
            declassify_out: spec_doc.field_as("declassify_out", Json::as_bool)?,
            stall_gate: spec_doc.field_as("stall_gate", Json::as_bool)?,
            debug_port: DebugPort::from_key(spec_doc.field_as("debug_port", Json::as_str)?)
                .ok_or("bad \"debug_port\"")?,
            cfg_reg: spec_doc.field_as("cfg_reg", Json::as_bool)?,
            mix_ops: spec_doc
                .field_as("mix_ops", Json::as_arr)?
                .iter()
                .map(|v| v.as_u64().map(|n| n as u8).ok_or("bad mix op"))
                .collect::<Result<Vec<u8>, &str>>()?,
            tenants: spec_doc.field_as("tenants", Json::as_u64)? as u8,
        };
        spec.normalize();

        let surgery = doc
            .field_as("surgery", Json::as_arr)?
            .iter()
            .map(surgery_from_json)
            .collect::<Result<Vec<SurgeryOp>, String>>()?;

        let mut programs = Vec::new();
        for p in doc.field_as("programs", Json::as_arr)? {
            let ops = p
                .as_arr()
                .ok_or("program is not an array")?
                .iter()
                .map(op_from_json)
                .collect::<Result<Vec<AttackOp>, String>>()?;
            if ops.len() > MAX_OPS {
                return Err(format!("program exceeds {MAX_OPS} ops"));
            }
            programs.push(TenantProgram { ops });
        }
        if programs.len() > usize::from(spec.tenants) {
            programs.truncate(usize::from(spec.tenants));
        }

        Ok(FuzzInput {
            seed,
            spec,
            surgery,
            programs,
        })
    }
}

fn op_from_json(doc: &Json) -> Result<AttackOp, String> {
    match doc.field_as("op", Json::as_str)? {
        "submit" => Ok(AttackOp::Submit {
            slot: doc.field_as("slot", Json::as_u64)? as u8,
            data: doc.field_as("data", Json::as_u64)?,
        }),
        "write-key" => Ok(AttackOp::WriteKey {
            addr: doc.field_as("addr", Json::as_u64)? as u8,
            data: doc.field_as("data", Json::as_u64)?,
            supervisor: doc.field_as("supervisor", Json::as_bool)?,
        }),
        "alloc" => Ok(AttackOp::Alloc {
            cell: doc.field_as("cell", Json::as_u64)? as u8,
        }),
        "write-cfg" => Ok(AttackOp::WriteCfg {
            value: doc.field_as("value", Json::as_u64)? as u8,
        }),
        "read-debug" => Ok(AttackOp::ReadDebug {
            sel: doc.field_as("sel", Json::as_u64)? as u8,
        }),
        "idle" => Ok(AttackOp::Idle {
            cycles: (doc.field_as("cycles", Json::as_u64)?.clamp(1, 4)) as u8,
        }),
        other => Err(format!("unknown attack op {other:?}")),
    }
}

fn surgery_from_json(doc: &Json) -> Result<SurgeryOp, String> {
    match doc.field_as("class", Json::as_str)? {
        "stuck-tag-join" => Ok(SurgeryOp::StuckTagJoin {
            site: doc.field_as("site", Json::as_u64)? as u8,
            keep_b: doc.field_as("keep_b", Json::as_bool)?,
        }),
        "const-guard" => Ok(SurgeryOp::ConstGuard {
            site: doc.field_as("site", Json::as_u64)? as u8,
            allow: doc.field_as("allow", Json::as_bool)?,
        }),
        "widen-declassify" => Ok(SurgeryOp::WidenDeclassify {
            site: doc.field_as("site", Json::as_u64)? as u8,
        }),
        "drop-mux" => Ok(SurgeryOp::DropMux {
            site: doc.field_as("site", Json::as_u64)? as u8,
            keep_t: doc.field_as("keep_t", Json::as_bool)?,
        }),
        "reroute-output" => Ok(SurgeryOp::RerouteOutput {
            out: doc.field_as("out", Json::as_u64)? as u8,
            back: doc.field_as("back", Json::as_u64)? as u8,
        }),
        "relabel-output" => Ok(SurgeryOp::RelabelOutput {
            out: doc.field_as("out", Json::as_u64)? as u8,
        }),
        "dead-const" => Ok(SurgeryOp::DeadConst {
            wide: doc.field_as("wide", Json::as_bool)?,
        }),
        "spoof-input-label" => Ok(SurgeryOp::SpoofInputLabel {
            input: doc.field_as("input", Json::as_u64)? as u8,
        }),
        other => Err(format!("unknown surgery class {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_round_trip_through_json() {
        for seed in [1u64, 99, 0xdead_beef] {
            let input = gen_input(seed);
            let doc = input.to_json();
            let text = doc.render();
            let back = FuzzInput::from_json(&Json::parse(&text).expect("parses")).expect("decodes");
            assert_eq!(back, input, "round trip changed the input");
        }
    }

    #[test]
    fn mutation_stays_on_the_grid() {
        let mut rng = FuzzRng::new(0x31337);
        let mut input = gen_input(5);
        for _ in 0..200 {
            input = mutate(&input, &mut rng);
            let mut renorm = input.spec.clone();
            renorm.normalize();
            assert_eq!(renorm, input.spec, "mutation left the spec grid");
            assert!(input.programs.len() <= 4);
            assert!(input.surgery.len() <= 6);
            assert!(input.surgery.iter().all(|op| !op.is_known_bad()));
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let good = gen_input(7).to_json().render();
        let parsed = Json::parse(&good).unwrap();
        assert!(FuzzInput::from_json(&parsed).is_ok());
        assert!(FuzzInput::from_json(&Json::obj(vec![])).is_err());
        assert!(FuzzInput::from_json(&Json::parse("{\"seed\":1}").unwrap()).is_err());
    }
}
