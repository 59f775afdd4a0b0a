//! The coordinator's append-only checkpoint journal (`fleet.ckpt`).
//!
//! Layout (little-endian):
//!
//! ```text
//! [b"IFCK"][version: u8][header frame][entry frame]*
//! ```
//!
//! where every frame is a shared-codec frame ([`imufit_math::frame`]:
//! `[len: u32][payload][crc16 over len + payload]`, DESIGN.md §19). The
//! header payload pins the campaign the journal belongs to (scenario
//! fingerprint, master seed, unit count); each entry payload is
//! `[unit: u32][record]` in the `Result` frame's bit-exact record encoding.
//!
//! A coordinator killed mid-write leaves at most one torn frame at the
//! tail. [`Checkpoint::load_for_resume`] therefore stops at the first
//! undecodable tail frame and reports where the clean prefix ends, while
//! [`Checkpoint::decode`] is the strict reader: any structural problem is
//! a typed [`FleetError`], never a panic.

use std::io::Write;
use std::path::{Path, PathBuf};

use imufit_core::ExperimentRecord;
use imufit_math::frame::{put_frame, Cursor, LenWidth, Put, Tail};
use imufit_scenario::ScenarioSpec;

use crate::protocol::{get_record, put_record, FleetError, MAX_PAYLOAD};

/// File magic: the first four bytes of every checkpoint journal.
pub const CKPT_MAGIC: [u8; 4] = *b"IFCK";

/// Current journal version. Version 2 added the attack field to the
/// record codec; older journals are rejected as version skew rather than
/// misread.
pub const CKPT_VERSION: u8 = 2;

/// Identifies the campaign a journal belongs to. Derived from the exact
/// scenario document plus the sharded unit count, so a resume against a
/// different scenario (or a different matrix) is rejected instead of
/// silently merging foreign rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignFingerprint {
    /// FNV-1a 64 over the scenario document's TOML bytes.
    pub spec_hash: u64,
    /// The campaign master seed (redundant with the hash, kept for
    /// human-readable mismatch errors).
    pub seed: u64,
    /// Total work units in the sharded matrix.
    pub units: u32,
}

impl CampaignFingerprint {
    /// Fingerprints a scenario and its sharded unit count.
    pub fn of(spec: &ScenarioSpec, units: usize) -> Self {
        CampaignFingerprint {
            spec_hash: fnv1a(spec.to_toml().as_bytes()),
            seed: spec.campaign.seed,
            units: units as u32,
        }
    }

    fn describe(&self) -> String {
        format!(
            "seed {} / {} units / spec {:016x}",
            self.seed, self.units, self.spec_hash
        )
    }
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One journal entry: a completed (or coordinator-aborted) unit.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEntry {
    /// Matrix index of the unit.
    pub unit: u32,
    /// Its finished record.
    pub record: ExperimentRecord,
}

/// A decoded journal.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The campaign the journal belongs to.
    pub fingerprint: CampaignFingerprint,
    /// Completed units, in completion (append) order.
    pub entries: Vec<CheckpointEntry>,
}

fn header_bytes(fp: &CampaignFingerprint) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&CKPT_MAGIC);
    out.put_u8(CKPT_VERSION);
    put_frame(&mut out, LenWidth::U32, |p| {
        p.put_u64(fp.spec_hash);
        p.put_u64(fp.seed);
        p.put_u32(fp.units);
    });
    out
}

/// Encodes one entry frame (exposed for benches).
pub fn encode_entry(entry: &CheckpointEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    put_frame(&mut out, LenWidth::U32, |p| {
        p.put_u32(entry.unit);
        put_record(p, &entry.record);
    });
    out
}

fn decode_header(r: &mut Cursor) -> Result<CampaignFingerprint, FleetError> {
    if r.bytes(4)? != CKPT_MAGIC {
        return Err(FleetError::BadMagic);
    }
    let version = r.u8()?;
    if version != CKPT_VERSION {
        return Err(FleetError::UnknownVersion(version));
    }
    let mut p = r.frame(LenWidth::U32, MAX_PAYLOAD)?;
    let fp = CampaignFingerprint {
        spec_hash: p.u64()?,
        seed: p.u64()?,
        units: p.u32()?,
    };
    p.finish("trailing bytes in journal header")?;
    Ok(fp)
}

fn decode_entry(r: &mut Cursor) -> Result<CheckpointEntry, FleetError> {
    let mut p = r.frame(LenWidth::U32, MAX_PAYLOAD)?;
    let unit = p.u32()?;
    let record = get_record(&mut p)?;
    p.finish("trailing bytes in journal entry")?;
    Ok(CheckpointEntry { unit, record })
}

impl Checkpoint {
    /// Strictly decodes a whole journal.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FleetError`] for any truncation or corruption —
    /// including a torn tail frame. Resume paths that must tolerate a
    /// mid-write kill use [`Checkpoint::load_for_resume`] instead.
    pub fn decode(data: &[u8]) -> Result<Self, FleetError> {
        let mut r = Cursor::new(data);
        let fingerprint = decode_header(&mut r)?;
        let mut entries = Vec::new();
        while !r.is_empty() {
            entries.push(decode_entry(&mut r)?);
        }
        Ok(Checkpoint {
            fingerprint,
            entries,
        })
    }

    /// Loads a journal for `--resume`: decodes the header strictly, then
    /// reads entries until the data runs out or an undecodable frame
    /// appears (a torn tail is the expected state after a SIGKILL
    /// mid-append). Returns the clean prefix plus the [`Tail`]; a torn
    /// tail carries the byte length to truncate the file to before
    /// appending resumes.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FleetError`] when the header itself is unreadable
    /// or the journal belongs to a different campaign than `expected`.
    pub fn load_for_resume(
        data: &[u8],
        expected: &CampaignFingerprint,
    ) -> Result<(Self, Tail), FleetError> {
        let mut r = Cursor::new(data);
        let fingerprint = decode_header(&mut r)?;
        if fingerprint != *expected {
            return Err(FleetError::CheckpointMismatch {
                expected: fingerprint.describe(),
                found: expected.describe(),
            });
        }
        let mut entries = Vec::new();
        let mut tail = Tail::Clean;
        while !r.is_empty() {
            let start = r.position();
            match decode_entry(&mut r) {
                Ok(entry) => entries.push(entry),
                Err(_) => {
                    // A torn or corrupt tail ends the clean prefix; the
                    // units it covered simply rerun.
                    tail = Tail::Torn { clean_len: start };
                    break;
                }
            }
        }
        Ok((
            Checkpoint {
                fingerprint,
                entries,
            },
            tail,
        ))
    }
}

/// Append-only journal writer. Every entry is flushed and fsync'd before
/// the coordinator acknowledges the unit as durable, so a kill at any
/// instant loses at most the entry being written.
#[derive(Debug)]
pub struct CheckpointWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl CheckpointWriter {
    /// Creates a fresh journal at `path` (truncating any previous one) and
    /// writes the header.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on filesystem failure.
    pub fn create(path: &Path, fp: &CampaignFingerprint) -> Result<Self, FleetError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&header_bytes(fp))?;
        file.sync_data()?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Opens an existing journal for appending (the resume path). The
    /// caller must have validated the header via
    /// [`Checkpoint::load_for_resume`]; `clean_len` is the byte length of
    /// the validated clean prefix — anything after it (a torn tail frame)
    /// is truncated away before appending resumes.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on filesystem failure.
    pub fn append(path: &Path, clean_len: u64) -> Result<Self, FleetError> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(clean_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(CheckpointWriter {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one completed unit, durably.
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::Io`] on filesystem failure.
    pub fn record(&mut self, entry: &CheckpointEntry) -> Result<(), FleetError> {
        self.file.write_all(&encode_entry(entry))?;
        self.file.sync_data()?;
        Ok(())
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imufit_core::ExperimentSpec;
    use imufit_uav::FlightOutcome;

    fn fp() -> CampaignFingerprint {
        CampaignFingerprint {
            spec_hash: 0xDEAD_BEEF_CAFE_F00D,
            seed: 2024,
            units: 22,
        }
    }

    fn entry(unit: u32) -> CheckpointEntry {
        CheckpointEntry {
            unit,
            record: ExperimentRecord {
                spec: ExperimentSpec::gold(unit as usize),
                drone_id: unit,
                outcome: FlightOutcome::Completed,
                flight_duration: 100.5 + unit as f64,
                distance_est: 1000.0,
                distance_true: 999.0,
                inner_violations: 0,
                outer_violations: 0,
                ekf_resets: 1,
            },
        }
    }

    fn journal_bytes(entries: &[CheckpointEntry]) -> Vec<u8> {
        let mut bytes = header_bytes(&fp());
        for e in entries {
            bytes.extend_from_slice(&encode_entry(e));
        }
        bytes
    }

    /// The fingerprint hashes the canonical re-dump of the parsed spec,
    /// not the submitted bytes: two documents with reordered keys,
    /// comments, and different whitespace share a fingerprint — and so
    /// share a result-store entry.
    #[test]
    fn fingerprint_is_over_canonical_dump_not_raw_bytes() {
        let canonical = ScenarioSpec::preset("quick").unwrap().to_toml();
        // Rebuild the document with the key lines inside each section
        // reversed, a leading comment, and extra blank lines.
        let mut reordered = String::from("# reordered copy of the quick preset\n");
        let mut section: Vec<&str> = Vec::new();
        let flush = |out: &mut String, section: &mut Vec<&str>| {
            for kv in section.drain(..).rev() {
                out.push_str(kv);
                out.push('\n');
            }
        };
        for line in canonical.lines() {
            if line.starts_with('[') {
                flush(&mut reordered, &mut section);
                reordered.push_str("\n\n");
                reordered.push_str(line);
                reordered.push('\n');
            } else if !line.trim().is_empty() {
                section.push(line);
            }
        }
        flush(&mut reordered, &mut section);
        assert_ne!(canonical, reordered);

        let a = ScenarioSpec::from_toml(&canonical).expect("canonical parses");
        let b = ScenarioSpec::from_toml(&reordered).expect("reordered parses");
        assert_eq!(b.to_toml(), canonical, "re-dump restores canonical form");
        assert_eq!(
            CampaignFingerprint::of(&a, 6),
            CampaignFingerprint::of(&b, 6),
            "reordered submission must hit the same cache entry"
        );
        // The unit count still discriminates.
        assert_ne!(
            CampaignFingerprint::of(&a, 6),
            CampaignFingerprint::of(&a, 7)
        );
    }

    #[test]
    fn journal_round_trips() {
        let entries = vec![entry(0), entry(5), entry(21)];
        let ck = Checkpoint::decode(&journal_bytes(&entries)).unwrap();
        assert_eq!(ck.fingerprint, fp());
        assert_eq!(ck.entries, entries);
    }

    #[test]
    fn empty_journal_round_trips() {
        let ck = Checkpoint::decode(&journal_bytes(&[])).unwrap();
        assert!(ck.entries.is_empty());
    }

    #[test]
    fn resume_salvages_the_clean_prefix_of_a_torn_journal() {
        let entries = vec![entry(0), entry(1), entry(2)];
        let bytes = journal_bytes(&entries);
        // Tear the final entry in half, as a SIGKILL mid-append would.
        let torn_at = bytes.len() - encode_entry(&entry(2)).len() / 2;
        let (ck, tail) = Checkpoint::load_for_resume(&bytes[..torn_at], &fp()).unwrap();
        assert_eq!(ck.entries, entries[..2]);
        assert_eq!(
            tail,
            Tail::Torn {
                clean_len: journal_bytes(&entries[..2]).len()
            }
        );
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let bytes = journal_bytes(&[entry(0)]);
        let mut other = fp();
        other.seed = 1;
        assert!(matches!(
            Checkpoint::load_for_resume(&bytes, &other),
            Err(FleetError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn writer_appends_durable_entries() {
        let dir = std::env::temp_dir().join(format!("imufit-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fleet.ckpt");

        let mut w = CheckpointWriter::create(&path, &fp()).unwrap();
        w.record(&entry(3)).unwrap();
        w.record(&entry(9)).unwrap();
        drop(w);

        let bytes = std::fs::read(&path).unwrap();
        let ck = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(ck.entries.len(), 2);
        assert_eq!(ck.entries[1], entry(9));

        // Simulate a torn tail on disk, then the resume append path.
        let torn = [&bytes[..], &[0x07, 0x00]].concat();
        std::fs::write(&path, &torn).unwrap();
        let (ck, tail) = Checkpoint::load_for_resume(&torn, &fp()).unwrap();
        assert_eq!(ck.entries.len(), 2);
        let clean = tail.clean_len(torn.len());
        assert_eq!(clean, bytes.len());
        let mut w = CheckpointWriter::append(&path, clean as u64).unwrap();
        w.record(&entry(12)).unwrap();
        drop(w);
        let ck = Checkpoint::decode(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(ck.entries.len(), 3);
        assert_eq!(ck.entries[2], entry(12));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_the_scenario() {
        let a = CampaignFingerprint::of(&ScenarioSpec::paper_default(), 850);
        let b = CampaignFingerprint::of(&ScenarioSpec::paper_default(), 850);
        assert_eq!(a, b);
        let mut spec = ScenarioSpec::paper_default();
        spec.campaign.seed = 1;
        let c = CampaignFingerprint::of(&spec, 850);
        assert_ne!(a, c);
        let d = CampaignFingerprint::of(&ScenarioSpec::paper_default(), 22);
        assert_ne!(a, d);
    }
}
