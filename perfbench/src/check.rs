//! Output checks that run outside the timed region.
//!
//! * [`oracle`] replays a circuit on the retained reference tableau
//!   (`epgs_stabilizer::reference::RefTableau`), an engine the compiler's
//!   own verifier does not use, and un-prepares the target graph state.
//! * [`Quality`] recomputes the paper's figures of merit from the circuit
//!   under the quantum-dot model, independently of the metrics the
//!   compiler reports.
//! * [`DigestLedger`] pins every output's QASM digest and the quality
//!   figures per (workload, seed), so two runs of one seed in a checkout —
//!   traced or not — must agree exactly.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use epgs_circuit::{circuit_metrics, qasm, Circuit, Op, Qubit};
use epgs_graph::Graph;
use epgs_hardware::HardwareModel;
use epgs_stabilizer::reference::RefTableau;
use epgs_stabilizer::Pauli;

use crate::util::fnv1a;

/// FNV-1a digest of the circuit's OpenQASM 3 text.
pub fn qasm_digest(circuit: &Circuit) -> u64 {
    fnv1a(qasm::to_qasm(circuit).as_bytes())
}

/// Replays `circuit` forward from all-|0⟩ (emitters on wires `0..m`,
/// photons on `m..m+n`), undoes the target with a CZ per target edge and H
/// on every photon, and requires every wire to read a deterministic `+1`
/// in Z. Random measurement outcomes alternate 0/1, so both correction
/// branches are exercised.
pub fn oracle(circuit: &Circuit, target: &Graph) -> Result<(), String> {
    let (m, n) = (circuit.num_emitters(), circuit.num_photons());
    if n != target.vertex_count() {
        return Err(format!(
            "{n} photon wires for a {}-vertex target",
            target.vertex_count()
        ));
    }
    if circuit.emission_count() != n {
        return Err(format!(
            "{} emissions for {n} photons",
            circuit.emission_count()
        ));
    }
    let wire = |q: Qubit| match q {
        Qubit::Emitter(i) => i,
        Qubit::Photon(i) => m + i,
    };
    let mut t = RefTableau::zero_state(m + n);
    let mut measurements = 0usize;
    for op in circuit.ops() {
        match op {
            Op::H(q) => t.h(wire(*q)),
            Op::S(q) => t.s(wire(*q)),
            Op::Sdg(q) => t.sdg(wire(*q)),
            Op::X(q) => t.px(wire(*q)),
            Op::Y(q) => t.py(wire(*q)),
            Op::Z(q) => t.pz(wire(*q)),
            Op::Cz(a, b) => t.cz(*a, *b),
            Op::Cnot(a, b) => t.cnot(*a, *b),
            Op::Emit { emitter, photon } => t.cnot(*emitter, m + photon),
            Op::MeasureZ {
                emitter,
                corrections,
            } => {
                let forced = measurements % 2 == 1;
                measurements += 1;
                if t.measure_z(*emitter, forced).bit() {
                    for &(q, p) in corrections {
                        match p {
                            Pauli::I => {}
                            Pauli::X => t.px(wire(q)),
                            Pauli::Y => t.py(wire(q)),
                            Pauli::Z => t.pz(wire(q)),
                        }
                    }
                    t.px(*emitter);
                }
            }
        }
    }
    for (a, b) in target.edges() {
        t.cz(m + a, m + b);
    }
    for v in 0..n {
        t.h(m + v);
    }
    match (0..m + n).find(|&q| t.deterministic_z_sign(q) != Some(false)) {
        None => Ok(()),
        Some(q) if q < m => Err(format!("emitter {q} does not return to |0>")),
        Some(q) => Err(format!("photon {} does not carry the target", q - m)),
    }
}

/// Runs [`oracle`] once per distinct (target key, circuit digest): a
/// verdict is a pure function of the two, and repeated passes produce the
/// same circuits.
#[derive(Default)]
pub struct OracleMemo {
    verdicts: HashMap<(u64, u64), Result<(), String>>,
}

impl OracleMemo {
    pub fn check(
        &mut self,
        key: u64,
        digest: u64,
        circuit: &Circuit,
        target: &Graph,
    ) -> Result<(), String> {
        self.verdicts
            .entry((key, digest))
            .or_insert_with(|| oracle(circuit, target))
            .clone()
    }
}

/// Figures of merit over a set of outputs, recomputed under
/// `HardwareModel::quantum_dot()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Σ emitter-emitter CNOTs (Fig. 10 a–c).
    pub ee_cnots: u64,
    /// Σ circuit duration in τ (Fig. 10 d–f).
    pub duration_tau: f64,
    /// Mean over outputs of the mean per-photon loss (Fig. 11).
    pub photon_loss_mean: f64,
}

impl Quality {
    pub fn of<'a>(circuits: impl IntoIterator<Item = &'a Circuit>) -> Quality {
        let hw = HardwareModel::quantum_dot();
        let (mut q, mut count) = (Quality::default(), 0usize);
        for c in circuits {
            let m = circuit_metrics(&hw, c);
            q.ee_cnots += m.ee_two_qubit_count as u64;
            q.duration_tau += m.duration;
            q.photon_loss_mean += m.loss.mean_photon_loss;
            count += 1;
        }
        q.photon_loss_mean /= count.max(1) as f64;
        q
    }
}

/// Per-(workload, seed) record of output digests and quality figures,
/// persisted under the benchmark's output directory. The first run of a
/// seed writes it; every later run of that seed must reproduce it exactly.
pub struct DigestLedger {
    path: PathBuf,
    text: String,
}

impl DigestLedger {
    pub fn new(
        out_dir: &Path,
        workload: &str,
        seed: u64,
        digests: &[u64],
        q: &Quality,
        extra: &[(&str, f64)],
    ) -> Self {
        let mut text = format!(
            "ee_cnots {}\nduration_tau {:?}\nphoton_loss_mean {:?}\n",
            q.ee_cnots, q.duration_tau, q.photon_loss_mean
        );
        for (k, v) in extra {
            text.push_str(&format!("{k} {v:?}\n"));
        }
        for d in digests {
            text.push_str(&format!("{d:016x}\n"));
        }
        DigestLedger {
            path: out_dir.join(format!("digests-{workload}-s{seed}.txt")),
            text,
        }
    }

    /// Compares against an earlier run's record (writing one if absent).
    pub fn reconcile(&self) -> Result<(), String> {
        match std::fs::read_to_string(&self.path) {
            Ok(prev) if prev == self.text => Ok(()),
            Ok(prev) => {
                let line = prev
                    .lines()
                    .zip(self.text.lines())
                    .position(|(a, b)| a != b)
                    .map_or(prev.lines().count().min(self.text.lines().count()), |i| i);
                Err(format!(
                    "outputs differ from an earlier run of this seed ({}, line {})",
                    self.path.display(),
                    line + 1
                ))
            }
            Err(_) => {
                let tmp = self.path.with_extension("tmp");
                std::fs::write(&tmp, &self.text)
                    .and_then(|()| std::fs::rename(&tmp, &self.path))
                    .map_err(|e| format!("cannot record digests at {}: {e}", self.path.display()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epgs_graph::generators;

    #[test]
    fn oracle_accepts_compiled_and_rejects_wrong_targets() {
        let g = generators::lattice(3, 3);
        let compiled = epgs::Framework::new(epgs::FrameworkConfig::builder().g_max(4).build())
            .compile(&g)
            .expect("small lattice compiles");
        assert_eq!(oracle(&compiled.circuit, &g), Ok(()));
        let mut other = g.clone();
        other.toggle_edge(0, 8).expect("vertices in range");
        assert!(oracle(&compiled.circuit, &other).is_err());
        assert!(oracle(&compiled.circuit, &generators::path(4)).is_err());
    }
}
