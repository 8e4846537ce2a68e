//! Durability for the daemon: a write-ahead journal of state-mutating
//! requests plus atomic, checksummed snapshots with generation-based
//! compaction. Zero dependencies — framing, checksums, and the
//! snapshot codec are all hand-rolled here.
//!
//! # On-disk layout
//!
//! A persistence directory holds *epochs*. Epoch `g` is the pair
//! `snap-<g>.slsnap` (the state as of the epoch's start; epoch 0 has
//! no snapshot — it starts empty) and `journal-<g>.slj` (the
//! state-mutating request lines accepted since). Taking a snapshot
//! rotates to epoch `g+1` and prunes everything before epoch `g`, so
//! at most two epochs exist at a time: the current one and one full
//! fallback in case the newest snapshot is damaged.
//!
//! A journal file is the 8-byte magic `SLJRNL1\n` followed by records:
//!
//! ```text
//! [len: u32 LE] [seq: u64 LE] [fnv64(seq ‖ payload): u64 LE] [payload]
//! ```
//!
//! `payload` is the raw request line, journaled *before* dispatch.
//! The reader distinguishes the two corruption shapes a crash can and
//! cannot produce: a record extending past end-of-file is the normal
//! signature of dying mid-append and is dropped with a `[recovered]`
//! note; a *complete* record whose checksum fails means the file was
//! damaged after the fact and is rejected with a typed diagnostic
//! naming the byte offset.
//!
//! A snapshot file is the magic `SLSNAP1\n`, a `u64` payload length, a
//! `u64` FNV-1a checksum, and a JSON payload. It is written to a
//! temporary name, `fsync`ed, and renamed into place (with a directory
//! `fsync` after), so a crash leaves either the old set of snapshots
//! or the old set plus one complete new snapshot — never a torn one.
//! Recovery walks snapshots newest-first and falls back on corruption.
//!
//! The payload writes each distinct HOA text once:
//!
//! ```text
//! {"seq":N,
//!  "automata":["HOA: v1…", …],
//!  "registry":[{"name":"p0","automaton":0}, …],
//!  "sessions":[{"name":"m0","target":"p0","automaton":0,"state":"3"}, …]}
//! ```
//!
//! The `automata` table is ordered by first occurrence in the
//! name-sorted registry, then the name-sorted sessions, so the bytes
//! are a function of the state. An `automaton` index outside the table
//! is [`PersistError::Corrupt`]. The reader also accepts the older
//! shape, with no table and a `"hoa"` text in every registry and
//! session entry.
//!
//! The writer never builds that document as a [`Json`] tree: a
//! [`SnapshotEncoder`] appends names, indices and states as it is fed,
//! and copies each automaton text from an already-escaped form that its
//! caller keeps between snapshots.

use crate::json::{self, Json};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// First 8 bytes of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SLJRNL1\n";
/// First 8 bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SLSNAP1\n";
/// Per-record header: length (4) + sequence (8) + checksum (8).
const RECORD_HEADER: usize = 20;
/// Hard cap on one record's payload — far above the daemon's own line
/// cap, so hitting it means the length field itself is garbage.
const MAX_RECORD: usize = 1 << 24;

/// FNV-1a 64 over the record sequence number and payload.
#[must_use]
fn fnv64(seq: u64, payload: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in seq.to_le_bytes().iter().chain(payload) {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why persistence failed.
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem operation failed.
    Io {
        /// The file (or directory) the operation touched.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A complete record or snapshot failed validation — damage a
    /// crash cannot produce, so it is rejected, not repaired.
    Corrupt {
        /// The damaged file.
        path: PathBuf,
        /// Byte offset of the damaged record or header.
        offset: u64,
        /// What failed to validate.
        detail: String,
    },
    /// A checksum-valid snapshot decoded to a state the engine refuses
    /// to adopt (e.g. a session state index out of range).
    State {
        /// What the engine rejected.
        detail: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, detail } => {
                write!(f, "i/o error at {}: {detail}", path.display())
            }
            PersistError::Corrupt {
                path,
                offset,
                detail,
            } => {
                write!(f, "corrupt {} at byte {offset}: {detail}", path.display())
            }
            PersistError::State { detail } => write!(f, "snapshot rejected: {detail}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn io_err(path: &Path, e: &std::io::Error) -> PersistError {
    PersistError::Io {
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Construction-time knobs for the durability layer.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The persistence directory (created if missing).
    pub dir: PathBuf,
    /// Journal records between automatic snapshots; `0` disables
    /// automatic snapshots (the journal still grows, and `shutdown` /
    /// drain still snapshot).
    pub snapshot_every: u64,
}

/// Counters the `stats` verb surfaces (all monotone within a process
/// except `journal_bytes` / `records_since_snapshot`, which reset on
/// rotation).
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistStats {
    /// Bytes in the current journal file (magic included).
    pub journal_bytes: u64,
    /// Records appended to the current journal since its snapshot.
    pub records_since_snapshot: u64,
    /// Snapshots written by this process.
    pub snapshots_taken: u64,
    /// Snapshots found damaged and skipped during recovery.
    pub snapshots_discarded: u64,
    /// Wall-clock duration of the last startup recovery, milliseconds.
    pub last_recovery_ms: u64,
    /// Journal records replayed by the last startup recovery.
    pub replayed_records: u64,
}

/// One monitor session's durable state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSnap {
    /// The session name (the `monitor` operand).
    pub name: String,
    /// The target name the session was created against.
    pub target: String,
    /// The session's own automaton as HOA text — per session, not a
    /// registry lookup, so sessions that outlived a redefinition of
    /// their target name restore against the automaton they actually
    /// watch. On disk it is an index into the snapshot's `automata`
    /// table, shared with every entry of the same text.
    pub hoa: String,
    /// The raw monitor state (backend-specific encoding; sentinels
    /// included). Stored as a decimal string on the wire because the
    /// NFA backend's sentinels do not fit a JSON `i64`.
    pub state: u64,
}

/// Everything a daemon needs to resume: the registry and every monitor
/// session, plus the journal sequence number the state reflects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The next journal sequence number at snapshot time: records with
    /// `seq >=` this are newer than the snapshot and must be replayed.
    pub seq: u64,
    /// `(name, HOA text)` bindings, sorted by name.
    pub registry: Vec<(String, String)>,
    /// Monitor sessions, sorted by session name.
    pub sessions: Vec<SessionSnap>,
}

impl Snapshot {
    /// The reference payload: each distinct HOA text once, in an
    /// `automata` table ordered by first occurrence in `registry`, then
    /// `sessions`, which point into it by index — so the bytes stay a
    /// function of the state while a thousand sessions over one target
    /// cost one text. [`SnapshotEncoder`] must write exactly its bytes.
    #[cfg(test)]
    pub(crate) fn to_json<'a>(&'a self) -> Json {
        let mut table: HashMap<&str, usize> = HashMap::new();
        let mut automata: Vec<Json> = Vec::new();
        let mut index_of = |text: &'a str| -> Json {
            let next = table.len();
            let index = *table.entry(text).or_insert_with(|| {
                automata.push(Json::Str(text.to_string()));
                next
            });
            Json::Int(index as i64)
        };
        let registry = self
            .registry
            .iter()
            .map(|(name, hoa)| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("automaton", index_of(hoa)),
                ])
            })
            .collect();
        let sessions = self
            .sessions
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("target", Json::Str(s.target.clone())),
                    ("automaton", index_of(&s.hoa)),
                    ("state", Json::Str(s.state.to_string())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seq", Json::Int(self.seq as i64)),
            ("automata", Json::Arr(automata)),
            ("registry", Json::Arr(registry)),
            ("sessions", Json::Arr(sessions)),
        ])
    }

    /// Decodes either payload shape: entries carrying an `automaton`
    /// index into the `automata` table, or (as snapshots written before
    /// the table existed do) their own `hoa` text.
    fn from_json(doc: &Json) -> Result<Snapshot, String> {
        let seq = doc
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("snapshot needs a nonnegative integer `seq`")?;
        let automata: Vec<&str> = match doc.get("automata") {
            None => Vec::new(),
            Some(table) => table
                .as_arr()
                .and_then(|items| items.iter().map(Json::as_str).collect())
                .ok_or("snapshot `automata` must be an array of strings")?,
        };
        let text = |item: &Json, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("snapshot entry needs a string `{key}`"))
        };
        let hoa = |item: &Json| -> Result<String, String> {
            let Some(index) = item.get("automaton") else {
                return text(item, "hoa");
            };
            index
                .as_u64()
                .and_then(|i| usize::try_from(i).ok())
                .and_then(|i| automata.get(i))
                .map(|t| (*t).to_string())
                .ok_or_else(|| {
                    format!(
                        "snapshot entry `automaton` {} is not an index into the {}-entry table",
                        index.render(),
                        automata.len()
                    )
                })
        };
        let mut registry = Vec::new();
        for item in doc
            .get("registry")
            .and_then(Json::as_arr)
            .ok_or("snapshot needs a `registry` array")?
        {
            registry.push((text(item, "name")?, hoa(item)?));
        }
        let mut sessions = Vec::new();
        for item in doc
            .get("sessions")
            .and_then(Json::as_arr)
            .ok_or("snapshot needs a `sessions` array")?
        {
            let state = text(item, "state")?
                .parse::<u64>()
                .map_err(|_| "session `state` must be a decimal u64".to_string())?;
            sessions.push(SessionSnap {
                name: text(item, "name")?,
                target: text(item, "target")?,
                hoa: hoa(item)?,
                state,
            });
        }
        Ok(Snapshot {
            seq,
            registry,
            sessions,
        })
    }
}

/// `text` as a JSON string literal, quotes included: the form in which
/// [`SnapshotEncoder`] copies automaton texts into a payload.
#[must_use]
pub(crate) fn escaped(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    json::render_string(text, &mut out);
    out
}

/// A snapshot payload, encoded as it is captured: the shape
/// [`Snapshot::to_json`] renders, without building it.
///
/// Automaton texts arrive [`escaped`], each as an `Arc<str>` that every
/// entry with the same content shares, so the table dedupes them by
/// `Arc` identity and each distinct text is copied once and never
/// escaped again. Table indices are handed out in call order, so feed
/// every binding in name order first, then every session in name order.
#[derive(Debug, Default)]
pub(crate) struct SnapshotEncoder {
    /// Table index of each text, by the address of its `Arc`.
    index: HashMap<usize, usize>,
    automata: Vec<Arc<str>>,
    registry: String,
    sessions: String,
}

impl SnapshotEncoder {
    fn index_of(&mut self, text: &Arc<str>) -> u64 {
        let next = self.automata.len();
        let index = *self
            .index
            .entry(Arc::as_ptr(text).cast::<u8>() as usize)
            .or_insert(next);
        if index == next {
            self.automata.push(Arc::clone(text));
        }
        index as u64
    }

    /// Adds the registry binding of `name` to the automaton `text`.
    pub(crate) fn binding(&mut self, name: &str, text: &Arc<str>) {
        let index = self.index_of(text);
        let out = &mut self.registry;
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::render_string(name, out);
        out.push_str(",\"automaton\":");
        json::render_u64(index, out);
        out.push('}');
    }

    /// Adds the monitor session `name` on `target`, watching the
    /// automaton `text` from the raw monitor state `state`.
    pub(crate) fn session(&mut self, name: &str, target: &str, text: &Arc<str>, state: u64) {
        let index = self.index_of(text);
        let out = &mut self.sessions;
        if !out.is_empty() {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::render_string(name, out);
        out.push_str(",\"target\":");
        json::render_string(target, out);
        out.push_str(",\"automaton\":");
        json::render_u64(index, out);
        out.push_str(",\"state\":\"");
        json::render_u64(state, out);
        out.push_str("\"}");
    }

    /// The payload of a snapshot taken at journal sequence `seq`.
    pub(crate) fn finish(self, seq: u64) -> String {
        let texts: usize = self.automata.iter().map(|text| text.len() + 1).sum();
        let mut out = String::with_capacity(64 + texts + self.registry.len() + self.sessions.len());
        out.push_str("{\"seq\":");
        json::render_u64(seq, &mut out);
        out.push_str(",\"automata\":[");
        for (i, text) in self.automata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(text);
        }
        out.push_str("],\"registry\":[");
        out.push_str(&self.registry);
        out.push_str("],\"sessions\":[");
        out.push_str(&self.sessions);
        out.push_str("]}");
        out
    }
}

/// Encodes bindings and sessions given with plain HOA texts, escaping
/// each distinct text once.
fn encode(registry: &[(String, String)], sessions: &[SessionSnap]) -> SnapshotEncoder {
    let mut texts: HashMap<&str, Arc<str>> = HashMap::new();
    let mut intern = |hoa| Arc::clone(texts.entry(hoa).or_insert_with(|| escaped(hoa).into()));
    let mut encoder = SnapshotEncoder::default();
    for (name, hoa) in registry {
        encoder.binding(name, &intern(hoa));
    }
    for s in sessions {
        encoder.session(&s.name, &s.target, &intern(&s.hoa), s.state);
    }
    encoder
}

/// What startup recovery reconstructed from disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The newest loadable snapshot, if any.
    pub snapshot: Option<Snapshot>,
    /// Journal lines newer than the snapshot, in append order — the
    /// engine replays these through normal dispatch.
    pub tail: Vec<String>,
    /// Human-readable recovery diagnostics (truncated tails dropped,
    /// damaged snapshots skipped). Lines start with `[recovered]`.
    pub notes: Vec<String>,
}

/// One parsed journal file.
struct JournalScan {
    /// `(seq, line)` for every complete, checksum-valid record.
    records: Vec<(u64, String)>,
    /// Offset of a truncated tail, if the file ends mid-record.
    truncated_at: Option<u64>,
    /// Bytes of valid content (magic + complete records) — the length
    /// to truncate to before appending.
    valid_len: u64,
}

fn read_journal(path: &Path) -> Result<JournalScan, PersistError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
    if bytes.is_empty() {
        // A crash between `create` and the magic write: clean start.
        return Ok(JournalScan {
            records: Vec::new(),
            truncated_at: None,
            valid_len: 0,
        });
    }
    if bytes.len() < JOURNAL_MAGIC.len() {
        return Ok(JournalScan {
            records: Vec::new(),
            truncated_at: Some(0),
            valid_len: 0,
        });
    }
    if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(PersistError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            detail: "bad journal magic".to_string(),
        });
    }
    let mut records = Vec::new();
    let mut off = JOURNAL_MAGIC.len();
    while off < bytes.len() {
        if bytes.len() - off < RECORD_HEADER {
            return Ok(JournalScan {
                records,
                truncated_at: Some(off as u64),
                valid_len: off as u64,
            });
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                offset: off as u64,
                detail: format!("record length {len} exceeds the {MAX_RECORD}-byte cap"),
            });
        }
        let seq = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().expect("8 bytes"));
        let hash = u64::from_le_bytes(bytes[off + 12..off + 20].try_into().expect("8 bytes"));
        if bytes.len() - off - RECORD_HEADER < len {
            return Ok(JournalScan {
                records,
                truncated_at: Some(off as u64),
                valid_len: off as u64,
            });
        }
        let payload = &bytes[off + RECORD_HEADER..off + RECORD_HEADER + len];
        if fnv64(seq, payload) != hash {
            return Err(PersistError::Corrupt {
                path: path.to_path_buf(),
                offset: off as u64,
                detail: format!("checksum mismatch in record seq {seq}"),
            });
        }
        let line = std::str::from_utf8(payload).map_err(|_| PersistError::Corrupt {
            path: path.to_path_buf(),
            offset: off as u64,
            detail: format!("record seq {seq} is not valid UTF-8"),
        })?;
        records.push((seq, line.to_string()));
        off += RECORD_HEADER + len;
    }
    Ok(JournalScan {
        records,
        truncated_at: None,
        valid_len: off as u64,
    })
}

pub(crate) fn load_snapshot(path: &Path) -> Result<Snapshot, PersistError> {
    let corrupt = |offset: u64, detail: String| PersistError::Corrupt {
        path: path.to_path_buf(),
        offset,
        detail,
    };
    let bytes = fs::read(path).map_err(|e| io_err(path, &e))?;
    if bytes.len() < SNAPSHOT_MAGIC.len() + 16 {
        return Err(corrupt(0, "snapshot shorter than its header".to_string()));
    }
    if &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(corrupt(0, "bad snapshot magic".to_string()));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let hash = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body = &bytes[24..];
    if body.len() != len {
        return Err(corrupt(
            24,
            format!("payload is {} bytes, header says {len}", body.len()),
        ));
    }
    if fnv64(0, body) != hash {
        return Err(corrupt(24, "snapshot checksum mismatch".to_string()));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| corrupt(24, "snapshot payload is not valid UTF-8".to_string()))?;
    let doc = json::parse(text).map_err(|e| corrupt(24, format!("snapshot JSON: {e}")))?;
    Snapshot::from_json(&doc).map_err(|e| corrupt(24, e))
}

fn epoch_of(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    let handle = File::open(dir).map_err(|e| io_err(dir, &e))?;
    handle.sync_all().map_err(|e| io_err(dir, &e))
}

/// Creates the journal at `path` holding only its magic, durably: the
/// file, then its directory, reach stable storage.
fn create_journal(dir: &Path, path: &Path) -> Result<File, PersistError> {
    let mut journal = File::create(path).map_err(|e| io_err(path, &e))?;
    journal
        .write_all(JOURNAL_MAGIC)
        .map_err(|e| io_err(path, &e))?;
    journal.sync_all().map_err(|e| io_err(path, &e))?;
    sync_dir(dir)?;
    Ok(journal)
}

/// The journal writer plus snapshot/compaction bookkeeping for one
/// persistence directory. Built by [`Persist::open`], which also
/// performs recovery.
#[derive(Debug)]
pub struct Persist {
    dir: PathBuf,
    snapshot_every: u64,
    /// Current epoch: records append to `journal-<epoch>.slj`.
    epoch: u64,
    /// Next record sequence number.
    seq: u64,
    /// The open `journal-<epoch>.slj`; `None` after a snapshot committed
    /// a new epoch whose journal could not be created yet.
    journal: Option<File>,
    /// The path of `journal-<epoch>.slj`.
    journal_path: PathBuf,
    stats: PersistStats,
}

impl Persist {
    /// Opens (creating if needed) a persistence directory, recovering
    /// whatever durable state it holds: the newest loadable snapshot
    /// (older ones are fallbacks when the newest is damaged) plus the
    /// journal tail to replay. Truncated journal tails — the normal
    /// signature of a crash mid-append — are dropped with a
    /// `[recovered]` note; a damaged *complete* record is an error.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failures;
    /// [`PersistError::Corrupt`] when a journal holds a complete record
    /// that fails validation (bad magic, oversized length field,
    /// checksum mismatch — the diagnostic names the byte offset).
    pub fn open(config: &PersistConfig) -> Result<(Persist, Recovered), PersistError> {
        fs::create_dir_all(&config.dir).map_err(|e| io_err(&config.dir, &e))?;
        let mut snaps: Vec<(u64, PathBuf)> = Vec::new();
        let mut journals: Vec<(u64, PathBuf)> = Vec::new();
        let entries = fs::read_dir(&config.dir).map_err(|e| io_err(&config.dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&config.dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = epoch_of(name, "snap-", ".slsnap") {
                snaps.push((g, entry.path()));
            } else if let Some(g) = epoch_of(name, "journal-", ".slj") {
                journals.push((g, entry.path()));
            }
        }
        snaps.sort_unstable_by_key(|(g, _)| *g);
        journals.sort_unstable_by_key(|(g, _)| *g);

        let mut recovered = Recovered::default();
        let mut discarded = 0u64;
        let mut snap_epoch = 0u64;
        for (g, path) in snaps.iter().rev() {
            match load_snapshot(path) {
                Ok(snap) => {
                    recovered.snapshot = Some(snap);
                    snap_epoch = *g;
                    break;
                }
                Err(e) => {
                    discarded += 1;
                    recovered
                        .notes
                        .push(format!("[recovered] snapshot discarded: {e}"));
                }
            }
        }

        // Replay journals from the chosen snapshot's epoch onward, in
        // epoch order, keeping only records newer than the snapshot
        // (and strictly increasing — overlap across a fallback is
        // filtered by sequence number, not by file).
        let mut next_seq = recovered.snapshot.as_ref().map_or(0, |s| s.seq);
        let mut epoch = snap_epoch;
        let mut valid_len: u64 = 0;
        let mut tail_records_in_current = 0u64;
        let mut have_journal = false;
        for (g, path) in journals.iter().filter(|(g, _)| *g >= snap_epoch) {
            let scan = read_journal(path)?;
            if let Some(off) = scan.truncated_at {
                recovered.notes.push(format!(
                    "[recovered] journal {}: truncated tail at byte {off} dropped ({} complete records kept)",
                    path.display(),
                    scan.records.len()
                ));
            }
            tail_records_in_current = 0;
            for (seq, line) in scan.records {
                if seq >= next_seq {
                    next_seq = seq + 1;
                    recovered.tail.push(line);
                    tail_records_in_current += 1;
                }
            }
            epoch = *g;
            valid_len = scan.valid_len;
            have_journal = true;
        }

        let journal_path = config.dir.join(format!("journal-{epoch}.slj"));
        let journal = if have_journal {
            let mut f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&journal_path)
                .map_err(|e| io_err(&journal_path, &e))?;
            if valid_len < JOURNAL_MAGIC.len() as u64 {
                f.set_len(0).map_err(|e| io_err(&journal_path, &e))?;
                f.write_all(JOURNAL_MAGIC)
                    .map_err(|e| io_err(&journal_path, &e))?;
                valid_len = JOURNAL_MAGIC.len() as u64;
            } else {
                f.set_len(valid_len)
                    .map_err(|e| io_err(&journal_path, &e))?;
                f.seek(SeekFrom::End(0))
                    .map_err(|e| io_err(&journal_path, &e))?;
            }
            f
        } else {
            let mut f = File::create(&journal_path).map_err(|e| io_err(&journal_path, &e))?;
            f.write_all(JOURNAL_MAGIC)
                .map_err(|e| io_err(&journal_path, &e))?;
            valid_len = JOURNAL_MAGIC.len() as u64;
            f
        };

        let persist = Persist {
            dir: config.dir.clone(),
            snapshot_every: config.snapshot_every,
            epoch,
            seq: next_seq,
            journal: Some(journal),
            journal_path,
            stats: PersistStats {
                journal_bytes: valid_len,
                records_since_snapshot: tail_records_in_current,
                snapshots_discarded: discarded,
                ..PersistStats::default()
            },
        };
        Ok((persist, recovered))
    }

    /// Appends one request line to the journal (write-ahead: call this
    /// *before* dispatching the request it records). When a snapshot
    /// committed a new epoch but could not create its journal, this
    /// creates it first.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the write fails or the epoch's journal
    /// cannot be created — the caller should reject the request rather
    /// than mutate undurable state.
    pub fn append(&mut self, line: &str) -> Result<(), PersistError> {
        let payload = line.as_bytes();
        if payload.len() > MAX_RECORD {
            return Err(PersistError::Io {
                path: self.journal_path.clone(),
                detail: format!("record of {} bytes exceeds the journal cap", payload.len()),
            });
        }
        let journal = match &mut self.journal {
            Some(journal) => journal,
            None => {
                let journal = create_journal(&self.dir, &self.journal_path)?;
                self.stats.journal_bytes = JOURNAL_MAGIC.len() as u64;
                self.journal.insert(journal)
            }
        };
        let mut buf = Vec::with_capacity(RECORD_HEADER + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&fnv64(self.seq, payload).to_le_bytes());
        buf.extend_from_slice(payload);
        journal
            .write_all(&buf)
            .map_err(|e| io_err(&self.journal_path, &e))?;
        self.seq += 1;
        self.stats.journal_bytes += buf.len() as u64;
        self.stats.records_since_snapshot += 1;
        Ok(())
    }

    /// Whether enough records have accumulated for an automatic
    /// snapshot.
    #[must_use]
    pub fn should_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.stats.records_since_snapshot >= self.snapshot_every
    }

    /// Writes a snapshot of the given state: the same file as
    /// [`Persist::write_encoded`] writes for it, which does the work.
    /// Equal HOA texts among the bindings and sessions are written once.
    ///
    /// # Errors
    ///
    /// As [`Persist::write_encoded`].
    pub fn write_snapshot(
        &mut self,
        registry: Vec<(String, String)>,
        sessions: Vec<SessionSnap>,
    ) -> Result<(), PersistError> {
        self.write_encoded(encode(&registry, &sessions))
    }

    /// Writes the encoded state as snapshot `<epoch+1>` atomically (temp
    /// file, `fsync`, rename), rotates to that epoch's fresh journal
    /// (old journal `fsync`, new journal with its magic `fsync`ed,
    /// directory `fsync`), and prunes every epoch before the previous
    /// one (the previous epoch is kept whole as the corruption
    /// fallback).
    ///
    /// The rename is the commit point: recovery prefers the new
    /// snapshot and skips older journals, so from then on records go
    /// only to the new epoch's journal. If that journal cannot be
    /// created here, [`Persist::append`] creates it or fails.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on any filesystem failure. Before the rename
    /// the journal is intact, so the caller may continue without the
    /// snapshot; after it, the snapshot holds every record so far.
    pub(crate) fn write_encoded(&mut self, encoder: SnapshotEncoder) -> Result<(), PersistError> {
        let payload = encoder.finish(self.seq).into_bytes();
        let next = self.epoch + 1;
        let final_path = self.dir.join(format!("snap-{next}.slsnap"));
        let tmp_path = self.dir.join(format!(".snap-{next}.tmp"));
        {
            let mut header = [0u8; 24];
            header[..8].copy_from_slice(SNAPSHOT_MAGIC);
            header[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            header[16..].copy_from_slice(&fnv64(0, &payload).to_le_bytes());
            let mut f = File::create(&tmp_path).map_err(|e| io_err(&tmp_path, &e))?;
            f.write_all(&header).map_err(|e| io_err(&tmp_path, &e))?;
            f.write_all(&payload).map_err(|e| io_err(&tmp_path, &e))?;
            f.sync_all().map_err(|e| io_err(&tmp_path, &e))?;
        }
        fs::rename(&tmp_path, &final_path).map_err(|e| io_err(&final_path, &e))?;
        let old = self.journal.take();
        let old_path = std::mem::replace(
            &mut self.journal_path,
            self.dir.join(format!("journal-{next}.slj")),
        );
        self.epoch = next;
        self.stats.snapshots_taken += 1;
        self.stats.records_since_snapshot = 0;
        self.stats.journal_bytes = 0;
        // Durable journal-so-far (the fallback epoch), then the fresh
        // epoch's journal.
        if let Some(old) = old {
            old.sync_all().map_err(|e| io_err(&old_path, &e))?;
        }
        self.journal = Some(create_journal(&self.dir, &self.journal_path)?);
        self.stats.journal_bytes = JOURNAL_MAGIC.len() as u64;
        self.prune(next.saturating_sub(1));
        Ok(())
    }

    /// Removes epoch files older than `keep_from`. Best-effort: a
    /// file that refuses to die only wastes disk, never correctness.
    fn prune(&self, keep_from: u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let epoch =
                epoch_of(name, "snap-", ".slsnap").or_else(|| epoch_of(name, "journal-", ".slj"));
            if let Some(g) = epoch {
                if g < keep_from {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    /// Forces the journal to stable storage (the per-record `write`
    /// already survives a process kill; this also survives power loss).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the sync fails.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        match &self.journal {
            Some(journal) => journal
                .sync_all()
                .map_err(|e| io_err(&self.journal_path, &e)),
            // Not created yet: every record so far is in the snapshot.
            None => Ok(()),
        }
    }

    /// Records the duration and replay size of a completed startup
    /// recovery (the engine owns the clock — replay runs through it).
    pub fn note_recovery(&mut self, ms: u64, replayed: u64) {
        self.stats.last_recovery_ms = ms;
        self.stats.replayed_records = replayed;
    }

    /// The counters the `stats` verb reports.
    #[must_use]
    pub fn stats(&self) -> &PersistStats {
        &self.stats
    }

    /// The next record sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sl-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &Path) -> PersistConfig {
        PersistConfig {
            dir: dir.to_path_buf(),
            snapshot_every: 0,
        }
    }

    #[test]
    fn journal_records_round_trip() {
        let dir = temp_dir("roundtrip");
        let (mut p, rec) = Persist::open(&config(&dir)).unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.tail.is_empty());
        assert!(rec.notes.is_empty(), "{:?}", rec.notes);
        p.append("{\"verb\":\"define\"}").unwrap();
        p.append("{\"verb\":\"monitor-step\"}").unwrap();
        drop(p);
        let (p, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(
            rec.tail,
            vec!["{\"verb\":\"define\"}", "{\"verb\":\"monitor-step\"}"]
        );
        assert_eq!(p.seq(), 2);
        assert!(rec.notes.is_empty(), "{:?}", rec.notes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_with_a_recovered_note() {
        let dir = temp_dir("truncate");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        p.append("first line").unwrap();
        p.append("second line").unwrap();
        drop(p);
        let journal = dir.join("journal-0.slj");
        let len = fs::metadata(&journal).unwrap().len();
        let f = OpenOptions::new().write(true).open(&journal).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (mut p, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(rec.tail, vec!["first line"], "the torn record is dropped");
        assert_eq!(rec.notes.len(), 1);
        assert!(rec.notes[0].starts_with("[recovered]"), "{}", rec.notes[0]);
        // The truncated bytes are gone: appending after recovery keeps
        // the journal parseable.
        p.append("third line").unwrap();
        drop(p);
        let (_, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(rec.tail, vec!["first line", "third line"]);
        assert!(rec.notes.is_empty(), "{:?}", rec.notes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_mismatch_is_rejected_naming_the_byte_offset() {
        let dir = temp_dir("corrupt");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        p.append("aaaa").unwrap();
        p.append("bbbb").unwrap();
        drop(p);
        let journal = dir.join("journal-0.slj");
        let mut bytes = fs::read(&journal).unwrap();
        // Flip one payload byte of the FIRST record: a complete record
        // with a bad checksum, which a crash cannot produce.
        let first_payload = JOURNAL_MAGIC.len() + RECORD_HEADER;
        bytes[first_payload] ^= 0xff;
        fs::write(&journal, &bytes).unwrap();
        let err = Persist::open(&config(&dir)).unwrap_err();
        match err {
            PersistError::Corrupt {
                offset, ref detail, ..
            } => {
                assert_eq!(offset, JOURNAL_MAGIC.len() as u64);
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(err.to_string().contains("at byte 8"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_journals_start_clean() {
        let dir = temp_dir("clean");
        // Missing directory entirely.
        let (p, rec) = Persist::open(&config(&dir)).unwrap();
        assert!(rec.snapshot.is_none() && rec.tail.is_empty() && rec.notes.is_empty());
        drop(p);
        // Zero-length journal (crash between create and magic write).
        fs::write(dir.join("journal-0.slj"), b"").unwrap();
        let (mut p, rec) = Persist::open(&config(&dir)).unwrap();
        assert!(rec.snapshot.is_none() && rec.tail.is_empty() && rec.notes.is_empty());
        p.append("x").unwrap();
        drop(p);
        let (_, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(rec.tail, vec!["x"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotation_compacts_and_newest_corruption_falls_back() {
        let dir = temp_dir("rotate");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        p.append("old record").unwrap();
        p.write_snapshot(
            vec![("a".to_string(), "HOA-a".to_string())],
            vec![SessionSnap {
                name: "m".to_string(),
                target: "a".to_string(),
                hoa: "HOA-a".to_string(),
                state: u64::MAX,
            }],
        )
        .unwrap();
        p.append("new record").unwrap();
        drop(p);
        // The snapshot absorbed the old record: only the tail replays.
        let (p, rec) = Persist::open(&config(&dir)).unwrap();
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(snap.registry, vec![("a".to_string(), "HOA-a".to_string())]);
        assert_eq!(snap.sessions[0].state, u64::MAX);
        assert_eq!(rec.tail, vec!["new record"]);
        drop(p);
        // Damage the newest snapshot: recovery falls back to replaying
        // the previous epoch's journal from scratch, with a note.
        let snap_path = dir.join("snap-1.slsnap");
        let mut bytes = fs::read(&snap_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&snap_path, &bytes).unwrap();
        let (p, rec) = Persist::open(&config(&dir)).unwrap();
        assert!(rec.snapshot.is_none(), "no older snapshot exists");
        assert_eq!(rec.tail, vec!["old record", "new record"]);
        assert_eq!(p.stats().snapshots_discarded, 1);
        assert!(rec.notes.iter().any(|n| n.contains("snapshot discarded")));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_rotation_keeps_one_fallback_epoch() {
        let dir = temp_dir("fallback");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        p.append("r0").unwrap();
        p.write_snapshot(vec![("s1".to_string(), "h".to_string())], Vec::new())
            .unwrap();
        p.append("r1").unwrap();
        p.write_snapshot(vec![("s2".to_string(), "h".to_string())], Vec::new())
            .unwrap();
        p.append("r2").unwrap();
        drop(p);
        // Epoch 0 is pruned; epochs 1 and 2 remain.
        assert!(!dir.join("journal-0.slj").exists());
        assert!(dir.join("snap-1.slsnap").exists());
        assert!(dir.join("journal-1.slj").exists());
        assert!(dir.join("snap-2.slsnap").exists());
        // Newest snapshot damaged: epoch 1 carries the recovery.
        fs::write(dir.join("snap-2.slsnap"), b"garbage").unwrap();
        let (_, rec) = Persist::open(&config(&dir)).unwrap();
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(snap.registry[0].0, "s1");
        assert_eq!(rec.tail, vec!["r1", "r2"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let snap = Snapshot {
            seq: 42,
            registry: vec![("n".to_string(), "hoa text\nwith lines".to_string())],
            sessions: vec![SessionSnap {
                name: "m1".to_string(),
                target: "n".to_string(),
                hoa: "hoa".to_string(),
                state: u64::MAX - 1,
            }],
        };
        let doc = snap.to_json();
        let back = Snapshot::from_json(&json::parse(&doc.render()).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    /// 1,000 sessions over 25 targets, as a monitoring daemon holds them.
    fn fleet_snapshot() -> Snapshot {
        let text = |t: usize| format!("HOA: v1\nname: \"t{t}\"\nStates: {}\n--END--\n", t + 1);
        Snapshot {
            seq: 7,
            registry: (0..25).map(|t| (format!("t{t:02}"), text(t))).collect(),
            sessions: (0..1000)
                .map(|j| SessionSnap {
                    name: format!("m{j:04}"),
                    target: format!("t{:02}", j % 25),
                    hoa: text(j % 25),
                    state: j as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn each_distinct_automaton_text_is_written_once_and_round_trips() {
        let snap = fleet_snapshot();
        let payload = snap.to_json().render();
        for t in 0..25 {
            let needle = format!("name: \\\"t{t}\\\"");
            assert_eq!(
                payload.matches(&needle).count(),
                1,
                "text of t{t} in {payload}"
            );
        }
        let doc = json::parse(&payload).unwrap();
        assert_eq!(
            doc.get("automata")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(25)
        );
        assert_eq!(Snapshot::from_json(&doc).unwrap(), snap);

        // Through the file, too: the written snapshot recovers intact.
        let dir = temp_dir("table");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        let (registry, sessions) = (snap.registry.clone(), snap.sessions.clone());
        p.write_snapshot(registry, sessions).unwrap();
        drop(p);
        let (_, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(rec.snapshot, Some(Snapshot { seq: 0, ..snap }));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The payload as written before the `automata` table existed: every
    /// registry binding and session carried its own `hoa` text.
    fn per_entry_json(snap: &Snapshot) -> Json {
        let registry = snap
            .registry
            .iter()
            .map(|(name, hoa)| {
                Json::obj(vec![
                    ("name", Json::Str(name.clone())),
                    ("hoa", Json::Str(hoa.clone())),
                ])
            })
            .collect();
        let sessions = snap
            .sessions
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("target", Json::Str(s.target.clone())),
                    ("hoa", Json::Str(s.hoa.clone())),
                    ("state", Json::Str(s.state.to_string())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("seq", Json::Int(snap.seq as i64)),
            ("registry", Json::Arr(registry)),
            ("sessions", Json::Arr(sessions)),
        ])
    }

    /// Writes `payload` as a complete, checksum-valid snapshot file.
    fn write_snapshot_file(path: &Path, payload: &str) {
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&fnv64(0, payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn per_entry_hoa_snapshots_still_load() {
        let snap = fleet_snapshot();
        let dir = temp_dir("per-entry");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.slsnap");
        write_snapshot_file(&path, &per_entry_json(&snap).render());
        assert_eq!(load_snapshot(&path).unwrap(), snap);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Strings a payload must escape: quote, backslash, control
    /// characters and non-ASCII, beside plain and empty ones.
    const AWKWARD: [&str; 6] = [
        "plain",
        "q\"uote",
        "back\\slash",
        "ctl\u{1}\n\t\u{1f}\r",
        "\u{e9}\u{65e5}\u{1f980}",
        "",
    ];

    /// A seeded state: a few bindings and sessions over a pool of four
    /// texts (so equal texts recur), with awkward names and states on
    /// both sides of `i64::MAX`.
    fn seeded_snapshot(seed: u64) -> Snapshot {
        let mut rng = sl_support::SplitMix::new(seed);
        let texts: Vec<String> = (0..4)
            .map(|t| format!("HOA: v1\nname: \"{}\"\nStates: {t}\n--END--\n", AWKWARD[t]))
            .collect();
        let name = |rng: &mut sl_support::SplitMix, i: usize| {
            format!("{}{i}", AWKWARD[rng.below(AWKWARD.len())])
        };
        let registry = (0..rng.below(6))
            .map(|i| (name(&mut rng, i), texts[rng.below(4)].clone()))
            .collect();
        let states = [
            0,
            7,
            i64::MAX as u64,
            (i64::MAX as u64) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let sessions = (0..rng.below(8))
            .map(|j| SessionSnap {
                name: name(&mut rng, j),
                target: name(&mut rng, j),
                hoa: texts[rng.below(4)].clone(),
                state: states[rng.below(states.len())],
            })
            .collect();
        Snapshot {
            seq: rng.below(1 << 20) as u64,
            registry,
            sessions,
        }
    }

    #[test]
    fn the_encoder_writes_the_reference_bytes() {
        let empty = Snapshot::default();
        assert_eq!(
            encode(&empty.registry, &empty.sessions).finish(0),
            empty.to_json().render()
        );
        for seed in 0..256 {
            let snap = seeded_snapshot(seed);
            let payload = encode(&snap.registry, &snap.sessions).finish(snap.seq);
            assert_eq!(payload, snap.to_json().render(), "seed {seed}");
            let doc = json::parse(&payload).unwrap();
            assert_eq!(Snapshot::from_json(&doc).unwrap(), snap, "seed {seed}");
        }
    }

    #[test]
    fn write_snapshot_files_hold_the_reference_bytes_and_load_back() {
        let dir = temp_dir("reference");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        for (epoch, seed) in (1..).zip(0..32) {
            let snap = Snapshot {
                seq: p.seq(),
                ..if seed == 0 {
                    Snapshot::default()
                } else {
                    seeded_snapshot(seed)
                }
            };
            p.write_snapshot(snap.registry.clone(), snap.sessions.clone())
                .unwrap();
            let path = dir.join(format!("snap-{epoch}.slsnap"));
            let bytes = fs::read(&path).unwrap();
            assert_eq!(
                bytes[24..],
                *snap.to_json().render().as_bytes(),
                "seed {seed}"
            );
            assert_eq!(load_snapshot(&path).unwrap(), snap, "seed {seed}");
            p.append("a record between snapshots").unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn after_the_rename_records_go_only_to_the_new_epoch() {
        let dir = temp_dir("commit");
        let (mut p, _) = Persist::open(&config(&dir)).unwrap();
        p.append("r0").unwrap();
        // The rotation fails after the rename: the new epoch's journal
        // cannot be created.
        fs::create_dir(dir.join("journal-1.slj")).unwrap();
        let registry = vec![("a".to_string(), "HOA-a".to_string())];
        assert!(p.write_snapshot(registry.clone(), Vec::new()).is_err());
        assert!(dir.join("snap-1.slsnap").exists(), "the snapshot committed");
        // Recovery would skip journal-0 now, so a record must not land
        // there: it is refused until journal-1 exists.
        assert!(matches!(p.append("refused"), Err(PersistError::Io { .. })));
        assert!(p.sync().is_ok(), "nothing unsynced: the snapshot holds it");
        fs::remove_dir(dir.join("journal-1.slj")).unwrap();
        p.append("r1").unwrap();
        assert_eq!(
            p.stats().journal_bytes,
            fs::metadata(dir.join("journal-1.slj")).unwrap().len()
        );
        drop(p);
        let (_, rec) = Persist::open(&config(&dir)).unwrap();
        assert_eq!(rec.snapshot.map(|s| s.registry), Some(registry));
        assert_eq!(rec.tail, vec!["r1"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bad_automaton_index_is_typed_corruption_not_a_panic() {
        let dir = temp_dir("bad-index");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap-1.slsnap");
        let cases = [
            r#"{"seq":0,"automata":["A"],"registry":[{"name":"a","automaton":1}],"sessions":[]}"#,
            r#"{"seq":0,"automata":["A"],"registry":[],"sessions":[{"name":"m","target":"a","automaton":99,"state":"0"}]}"#,
            r#"{"seq":0,"automata":["A"],"registry":[{"name":"a","automaton":-1}],"sessions":[]}"#,
            r#"{"seq":0,"automata":["A"],"registry":[{"name":"a","automaton":"0"}],"sessions":[]}"#,
            r#"{"seq":0,"registry":[{"name":"a","automaton":0}],"sessions":[]}"#,
            r#"{"seq":0,"automata":[7],"registry":[],"sessions":[]}"#,
        ];
        for payload in cases {
            write_snapshot_file(&path, payload);
            match load_snapshot(&path) {
                Err(PersistError::Corrupt { offset, detail, .. }) => {
                    assert_eq!(offset, 24, "{detail}");
                    assert!(detail.contains("automat"), "{payload}: {detail}");
                }
                other => panic!("{payload}: expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
