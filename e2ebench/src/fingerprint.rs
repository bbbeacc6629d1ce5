//! Output fingerprints: FNV-1a over a canonical byte stream, with every
//! float hashed as its `f64::to_bits` so that any change to any bit of
//! the output changes the digest.

use boe_core::report::TermReport;
use boe_core::termex::RankedTerm;
use boe_core::EnrichmentReport;

/// A 64-bit FNV-1a digest, fed field by field.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hash a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Hash an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hash a float by its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of an enrichment report: term order, Step-I scores, polysemic
/// flags, truncation, k, induced-sense assignments, propositions (term,
/// concepts, cosine bits, origin), the already-known list and every
/// degradation. Timings and warnings are left out.
pub fn report(r: &EnrichmentReport) -> u64 {
    let mut h = Fingerprint::default();
    h.u64(r.terms.len() as u64);
    for t in &r.terms {
        term(&mut h, t);
    }
    h.u64(r.already_known.len() as u64);
    for s in &r.already_known {
        h.str(s);
    }
    h.u64(r.diagnostics.degraded.len() as u64);
    for d in &r.diagnostics.degraded {
        h.str(&d.term);
        h.str(&format!("{:?}", d.stage));
        h.str(&d.reason);
    }
    h.finish()
}

fn term(h: &mut Fingerprint, t: &TermReport) {
    h.str(&t.surface);
    h.f64(t.term_score);
    h.u64(u64::from(t.polysemic));
    h.u64(u64::from(t.truncated));
    h.u64(t.senses.k as u64);
    h.u64(t.senses.assignments.len() as u64);
    for &a in &t.senses.assignments {
        h.u64(a as u64);
    }
    h.u64(t.propositions.len() as u64);
    for p in &t.propositions {
        h.str(&p.term);
        h.u64(p.concepts.len() as u64);
        for c in &p.concepts {
            h.u64(u64::from(c.0));
        }
        h.f64(p.cosine);
        h.str(p.origin.name());
    }
}

/// Digest of ranked term lists (surface and score bits, in order).
pub fn ranked(lists: &[&[RankedTerm]]) -> u64 {
    let mut h = Fingerprint::default();
    for list in lists {
        h.u64(list.len() as u64);
        for r in *list {
            h.str(&r.surface);
            h.f64(r.score);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_float_bit_and_list_boundaries() {
        let t = |s: &str, score: f64| RankedTerm {
            candidate: 0,
            surface: s.to_owned(),
            score,
        };
        let a = [t("a", 1.0), t("b", 0.5)];
        let a_bumped = [t("a", f64::from_bits(1.0f64.to_bits() + 1)), t("b", 0.5)];
        assert_ne!(ranked(&[&a]), ranked(&[&a_bumped]));
        assert_ne!(ranked(&[&a[..1], &a[1..]]), ranked(&[&a, &[]]));
        assert_eq!(ranked(&[&a]), ranked(&[&a.clone()]));
    }
}
