//! A std-only open-addressing table keyed by a 64-bit URL key, probed in
//! stages like the baked index.
//!
//! A [`KeyTable`] holds one slot per entry in a flat array: the URL, a
//! 32-bit tag and the value. The URL is an `Arc<str>` by default, so a
//! copy of the table shares every key; a table that is never copied (the
//! resolver's negative cache) holds a `Box<str>`, 16 bytes an entry
//! smaller. The tag is the key's high half ([`TAG_SHIFT`]); its low bits
//! name the entry's home slot and all 32 bits screen a candidate before
//! the URL compare. Collisions are resolved by Robin Hood linear probing:
//! an entry never sits nearer its home than one it passed on insertion,
//! so a lookup stops at the first slot whose entry is nearer its own home
//! than the key would be, and a URL that is absent costs about as many
//! slots as one that is present. A delete shifts the run behind it back
//! one slot, so no tombstones build up. The table grows at seven eighths
//! full, the load a `std` `HashMap` grows at, and re-places every entry by
//! its stored tag: no URL is hashed again.
//!
//! [`KeyTable::get_many`] answers a batch [`PROBE_LANE`] keys at a time,
//! in the stages of `SnapshotIndex::get_many` (`freephish-mapidx`): read
//! every key's home slot, then walk each to its candidate and touch the
//! candidate's URL bytes, then compare. A stage's loads do not depend on
//! one another, so the cache misses of a lane's keys overlap instead of
//! queueing one key's chain behind another's. [`KeyTable::get`] is the
//! one-key case of the same probe.
//!
//! Keys come from [`url_key`]: SipHash keyed once per process, so URLs a
//! client picks cannot be aimed at one home slot, and computed once per
//! URL by the caller, who may take other bits of the same key for its own
//! levels (the verdict index picks a shard with the low half).

use freephish_mapidx::read::PROBE_LANE;
use std::hash::{BuildHasher, RandomState};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The key bits a [`KeyTable`] reads start here; callers that split one
/// key across several levels take theirs from below.
pub const TAG_SHIFT: u32 = 32;

/// The smallest non-empty table, in slots.
const MIN_SLOTS: usize = 16;

/// The in-memory key of a URL: SipHash under one random key drawn per
/// process (`RandomState`), so no client can choose URLs that collide.
/// Nothing persists it; the baked index keys its file with its own
/// stable hash.
pub fn url_key(url: &str) -> u64 {
    static STATE: OnceLock<RandomState> = OnceLock::new();
    STATE.get_or_init(RandomState::new).hash_one(url)
}

fn tag_of(key: u64) -> u32 {
    (key >> TAG_SHIFT) as u32
}

/// How far slot `i` is past the home of an entry tagged `tag`.
fn distance(i: usize, tag: u32, mask: usize) -> usize {
    i.wrapping_sub(tag as usize) & mask
}

/// The most entries `slots` slots hold before the table grows.
fn max_len(slots: usize) -> usize {
    slots / 8 * 7
}

/// Slots for a table of `len` entries.
fn slots_for(len: usize) -> usize {
    let mut slots = MIN_SLOTS;
    while max_len(slots) < len {
        slots *= 2;
    }
    assert!(slots <= 1 << 32, "a key table is limited to 2^32 slots");
    slots
}

#[derive(Clone)]
struct Slot<V, U> {
    url: U,
    tag: u32,
    value: V,
}

/// An open-addressing map from (64-bit key, URL) to a `Copy` value, the
/// URL held as a `U`; see the module docs. Every method takes the key the
/// caller computed for the URL, and a URL must always come with the same
/// key.
#[derive(Clone)]
pub struct KeyTable<V, U = Arc<str>> {
    /// Empty, or a power of two of slots.
    slots: Box<[Option<Slot<V, U>>]>,
    len: usize,
}

impl<V: Copy, U: Deref<Target = str> + Clone> Default for KeyTable<V, U> {
    fn default() -> Self {
        KeyTable::new()
    }
}

impl<V: Copy, U: Deref<Target = str> + Clone> KeyTable<V, U> {
    /// An empty table; it allocates at its first insert.
    pub fn new() -> KeyTable<V, U> {
        KeyTable {
            slots: Box::new([]),
            len: 0,
        }
    }

    /// Entries in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value stored for `url`, whose key is `key`: the one-key case of
    /// [`KeyTable::get_many`].
    pub fn get(&self, key: u64, url: &str) -> Option<V> {
        self.find(key, url).map(|i| self.value_at(i))
    }

    /// Answer every `None` slot of `out` with the value stored for the URL
    /// in the same slot of `urls`, whose key is in the same slot of
    /// `keys`; slots already `Some` are left alone, and a slot stays
    /// `None` when its URL is absent. The unanswered slots are probed
    /// [`PROBE_LANE`] at a time, in stages (see the module docs).
    ///
    /// # Panics
    ///
    /// When `keys`, `urls` and `out` differ in length.
    pub fn get_many<K: AsRef<str>>(&self, keys: &[u64], urls: &[K], out: &mut [Option<V>]) {
        assert_eq!(keys.len(), urls.len(), "one key per URL");
        assert_eq!(urls.len(), out.len(), "one answer slot per URL");
        let mut lane = Lane::new(self);
        for (slot, &key) in keys.iter().enumerate() {
            if out[slot].is_none() {
                lane.push(
                    Lookup {
                        table: self,
                        key,
                        slot,
                    },
                    urls,
                    out,
                );
            }
        }
        lane.flush(urls, out);
    }

    /// Store `value` for `url`; returns the value it replaces. A new entry
    /// keeps `url` as a `U` (an `Arc<str>` is shared as is, a `&str` is
    /// copied once); a replaced one keeps the URL it has.
    pub fn insert<S>(&mut self, key: u64, url: S, value: V) -> Option<V>
    where
        S: AsRef<str> + Into<U>,
    {
        if let Some(i) = self.find(key, url.as_ref()) {
            let slot = self.slots[i].as_mut().expect("found slot is full");
            return Some(std::mem::replace(&mut slot.value, value));
        }
        self.reserve_dropping(1, |_| true);
        self.place(Slot {
            url: url.into(),
            tag: tag_of(key),
            value,
        });
        self.len += 1;
        None
    }

    /// Remove `url`'s entry; returns its value. The entries probed past it
    /// shift back one slot each, so the table keeps no tombstone.
    pub fn remove(&mut self, key: u64, url: &str) -> Option<V> {
        let mut i = self.find(key, url)?;
        let mask = self.slots.len() - 1;
        let removed = self.slots[i].take().expect("found slot is full");
        loop {
            let next = (i + 1) & mask;
            match &self.slots[next] {
                Some(s) if distance(next, s.tag, mask) > 0 => {
                    self.slots[i] = self.slots[next].take();
                    i = next;
                }
                _ => break,
            }
        }
        self.len -= 1;
        Some(removed.value)
    }

    /// Make room for `additional` more entries. When that takes a grow,
    /// the entries whose value `keep` refuses are dropped rather than
    /// re-placed, and the new size counts only the survivors, so a grow
    /// can rebuild the table at the size it had. Returns how many entries
    /// were dropped: none when no grow was needed.
    pub fn reserve_dropping(
        &mut self,
        additional: usize,
        mut keep: impl FnMut(&V) -> bool,
    ) -> usize {
        if self.len + additional <= max_len(self.slots.len()) {
            return 0;
        }
        let mut old = std::mem::replace(&mut self.slots, Box::new([]));
        let mut dropped = 0;
        for slot in old.iter_mut() {
            if slot.as_ref().is_some_and(|s| !keep(&s.value)) {
                *slot = None;
                dropped += 1;
            }
        }
        self.len -= dropped;
        self.slots = vec![None; slots_for(self.len + additional)].into_boxed_slice();
        for slot in old.into_vec().into_iter().flatten() {
            self.place(slot);
        }
        dropped
    }

    /// Insert every entry of `other` by its stored tag, so no URL is
    /// hashed again; an entry of `other` replaces this table's entry for
    /// the same URL.
    pub(crate) fn insert_all(&mut self, other: &KeyTable<V, U>)
    where
        U: AsRef<str>,
    {
        for slot in other.slots.iter().flatten() {
            let key = u64::from(slot.tag) << TAG_SHIFT;
            self.insert(key, slot.url.clone(), slot.value);
        }
    }

    /// A copy of this table with room for `additional` more entries: a
    /// plain clone when they fit, else one re-placement into a larger
    /// table, never both.
    pub fn with_room(&self, additional: usize) -> KeyTable<V, U> {
        if self.len + additional <= max_len(self.slots.len()) {
            return self.clone();
        }
        let mut table = KeyTable {
            slots: vec![None; slots_for(self.len + additional)].into_boxed_slice(),
            len: self.len,
        };
        for slot in self.slots.iter().flatten() {
            table.place(slot.clone());
        }
        table
    }

    /// Put `entry`, which is not in the table, into a table with a free
    /// slot: Robin Hood, so it takes the place of the first entry that is
    /// nearer its home than `entry` would be, and that entry moves on.
    fn place(&mut self, mut entry: Slot<V, U>) {
        let mask = self.slots.len() - 1;
        let mut i = entry.tag as usize & mask;
        let mut dist = 0;
        loop {
            match &mut self.slots[i] {
                None => {
                    self.slots[i] = Some(entry);
                    return;
                }
                Some(s) => {
                    let theirs = distance(i, s.tag, mask);
                    if theirs < dist {
                        std::mem::swap(s, &mut entry);
                        dist = theirs;
                    }
                }
            }
            i = (i + 1) & mask;
            dist += 1;
        }
    }

    /// The slot holding `url`'s entry.
    fn find(&self, key: u64, url: &str) -> Option<usize> {
        probe::<V, U, &str, 1>(
            &[Lookup {
                table: self,
                key,
                slot: 0,
            }],
            &[url],
        )[0]
    }

    fn value_at(&self, i: usize) -> V {
        self.slots[i].as_ref().expect("found slot is full").value
    }
}

/// One key of a staged probe: the table it is looked up in (a lane may
/// span several), the key, and the caller's slot for its URL and answer.
pub(crate) struct Lookup<'t, V, U> {
    pub(crate) table: &'t KeyTable<V, U>,
    pub(crate) key: u64,
    pub(crate) slot: usize,
}

impl<V, U> Clone for Lookup<'_, V, U> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<V, U> Copy for Lookup<'_, V, U> {}

/// Up to [`PROBE_LANE`] lookups waiting for one staged probe.
pub(crate) struct Lane<'t, V, U> {
    lookups: [Lookup<'t, V, U>; PROBE_LANE],
    len: usize,
}

impl<'t, V: Copy, U: Deref<Target = str> + Clone> Lane<'t, V, U> {
    /// An empty lane; `table` only fills the unused entries.
    pub(crate) fn new(table: &'t KeyTable<V, U>) -> Lane<'t, V, U> {
        Lane {
            lookups: [Lookup {
                table,
                key: 0,
                slot: 0,
            }; PROBE_LANE],
            len: 0,
        }
    }

    /// Queue `lookup`, probing the lane into `out` once it is full.
    pub(crate) fn push<K: AsRef<str>>(
        &mut self,
        lookup: Lookup<'t, V, U>,
        urls: &[K],
        out: &mut [Option<V>],
    ) {
        self.lookups[self.len] = lookup;
        self.len += 1;
        if self.len == PROBE_LANE {
            self.flush(urls, out);
        }
    }

    /// Probe the queued lookups and write each found value to its slot.
    pub(crate) fn flush<K: AsRef<str>>(&mut self, urls: &[K], out: &mut [Option<V>]) {
        if self.len == 0 {
            return;
        }
        let lookups = &self.lookups[..self.len];
        let found = probe::<V, U, K, PROBE_LANE>(lookups, urls);
        for (l, i) in lookups.iter().zip(found) {
            if let Some(i) = i {
                out[l.slot] = Some(l.table.value_at(i));
            }
        }
        self.len = 0;
    }
}

/// The one probe loop: the slot holding each lookup's URL, `None` when it
/// is absent. A present key costs two dependent misses, its home slot and
/// the candidate's URL bytes; each stage makes one of them for every key
/// of the lane before the next stage needs any of their results.
fn probe<V, U: Deref<Target = str>, K: AsRef<str>, const N: usize>(
    lane: &[Lookup<'_, V, U>],
    urls: &[K],
) -> [Option<usize>; N] {
    debug_assert!(lane.len() <= N);
    // Stage 1: read every key's home slot. An empty table or an empty
    // home slot answers "absent" at once.
    let mut at = [None; N];
    for (j, l) in lane.iter().enumerate() {
        let slots = &l.table.slots;
        if !slots.is_empty() {
            let home = tag_of(l.key) as usize & (slots.len() - 1);
            at[j] = slots[home].as_ref().map(|_| home);
        }
    }

    // Stage 2: walk each key to its first slot with the same tag, stopping
    // at an empty slot or at an entry nearer its home than the key would
    // be, and touch that candidate's URL. Its first byte is kept, and
    // stage 3 checks it before comparing the whole URL.
    let mut lead = [None; N];
    for (j, l) in lane.iter().enumerate() {
        let Some(mut i) = at[j] else { continue };
        let (slots, tag) = (&l.table.slots, tag_of(l.key));
        let mask = slots.len() - 1;
        at[j] = loop {
            match &slots[i] {
                Some(s) if s.tag == tag => {
                    lead[j] = s.url.as_bytes().first().copied();
                    break Some(i);
                }
                Some(s) if distance(i, s.tag, mask) >= distance(i, tag, mask) => {
                    i = (i + 1) & mask;
                }
                _ => break None,
            }
        };
    }

    // Stage 3: compare URLs. Slots past a candidate that is another URL
    // with the same tag (rare) are walked and compared in place.
    let mut found = [None; N];
    for (j, l) in lane.iter().enumerate() {
        let Some(mut i) = at[j] else { continue };
        let (slots, tag) = (&l.table.slots, tag_of(l.key));
        let mask = slots.len() - 1;
        let url = urls[l.slot].as_ref();
        let mut compare = lead[j] == url.as_bytes().first().copied();
        found[j] = loop {
            match &slots[i] {
                Some(s) if s.tag == tag && compare && *s.url == *url => break Some(i),
                Some(s) if distance(i, s.tag, mask) >= distance(i, tag, mask) => {
                    i = (i + 1) & mask;
                    compare = true;
                }
                _ => break None,
            }
        };
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use freephish_simclock::prop::{check, Gen};
    use std::collections::HashMap;

    /// A key function with few distinct keys, so different URLs share a
    /// whole key: the URL compare and the delete's back-shift are reached.
    fn colliding_key(url: &str) -> u64 {
        (url_key(url) % 5) << TAG_SHIFT
    }

    #[test]
    fn slots_stay_at_32_bytes() {
        #[allow(dead_code)]
        #[derive(Clone, Copy)]
        #[repr(C, packed(4))]
        struct Packed(f64, u32);
        assert_eq!(std::mem::size_of::<Option<Slot<f64, Arc<str>>>>(), 32);
        assert_eq!(std::mem::size_of::<Option<Slot<Packed, Box<str>>>>(), 32);
    }

    /// One step of a drawn script.
    enum Op {
        Insert(usize, u64),
        Remove(usize),
        Clone,
        Grow(usize),
        Lookup(Vec<usize>),
    }

    fn op(g: &mut Gen, urls: usize) -> Op {
        match g.usize_in(0..10) {
            0..=3 => Op::Insert(g.usize_in(0..urls), g.u64()),
            4 | 5 => Op::Remove(g.usize_in(0..urls)),
            6 => Op::Clone,
            7 => Op::Grow(g.usize_in(0..40)),
            _ => {
                let lane = PROBE_LANE;
                let len = *g.pick(&[0, 1, lane - 1, lane, lane + 1, 256]);
                Op::Lookup((0..len).map(|_| g.usize_in(0..urls)).collect())
            }
        }
    }

    /// `get_many` ≡ `get` ≡ a `HashMap` model over drawn inserts, removes,
    /// clones and grows, with keys from `url_key` or from a function that
    /// collides on purpose, and URLs held as `Arc<str>` or `Box<str>`;
    /// lookups span lanes of every width around [`PROBE_LANE`] and repeat
    /// URLs.
    #[test]
    fn get_many_equals_get_equals_a_map_model() {
        check(128, |g| {
            let key: fn(&str) -> u64 = if g.bool() { url_key } else { colliding_key };
            if g.bool() {
                model_script::<Arc<str>>(g, key);
            } else {
                model_script::<Box<str>>(g, key);
            }
        });
    }

    fn model_script<U>(g: &mut Gen, key: fn(&str) -> u64)
    where
        U: Deref<Target = str> + Clone,
        for<'a> &'a str: Into<U>,
    {
        // A URL pool a few times a lane: enough to probe far past the home
        // slots, small enough to repeat URLs.
        let urls: Vec<String> = (0..g.usize_in(1..60))
            .map(|i| format!("https://s{i}.weebly.com/"))
            .collect();
        let mut table: KeyTable<u64, U> = KeyTable::new();
        let mut model: HashMap<&str, u64> = HashMap::new();
        for _ in 0..g.usize_in(0..120) {
            match op(g, urls.len()) {
                Op::Insert(u, value) => {
                    let url = urls[u].as_str();
                    assert_eq!(table.insert(key(url), url, value), model.insert(url, value));
                }
                Op::Remove(u) => {
                    let url = urls[u].as_str();
                    assert_eq!(table.remove(key(url), url), model.remove(url));
                }
                Op::Clone => table = table.clone(),
                Op::Grow(n) => table = table.with_room(n),
                Op::Lookup(picks) => {
                    let frame: Vec<&str> = picks.iter().map(|&u| urls[u].as_str()).collect();
                    let keys: Vec<u64> = frame.iter().map(|u| key(u)).collect();
                    // Some slots arrive answered and must stay so.
                    let mut out: Vec<Option<u64>> = (0..frame.len())
                        .map(|i| (i % 7 == 3).then_some(u64::MAX))
                        .collect();
                    table.get_many(&keys, &frame, &mut out);
                    for (i, url) in frame.iter().enumerate() {
                        let one = table.get(key(url), url);
                        assert_eq!(one, model.get(url).copied(), "{url}");
                        let want = if i % 7 == 3 { Some(u64::MAX) } else { one };
                        assert_eq!(out[i], want, "slot {i}: {url}");
                    }
                }
            }
            assert_eq!(table.len(), model.len());
        }
        for url in &urls {
            assert_eq!(table.get(key(url), url), model.get(url.as_str()).copied());
        }
    }

    #[test]
    fn a_grow_drops_what_keep_refuses_and_counts_it() {
        let mut table: KeyTable<u64> = KeyTable::new();
        for i in 0..12u64 {
            let url = format!("https://e{i}.weebly.com/");
            table.insert(url_key(&url), url.as_str(), i);
        }
        // Room without a grow: nothing is dropped, whatever `keep` says.
        assert_eq!(table.reserve_dropping(0, |_| false), 0);
        assert_eq!(table.len(), 12);
        // A grow drops the odd values and keeps the size.
        assert_eq!(table.reserve_dropping(4, |v| v % 2 == 0), 6);
        assert_eq!(table.len(), 6);
        assert_eq!(table.slots.len(), MIN_SLOTS);
        for i in 0..12u64 {
            let url = format!("https://e{i}.weebly.com/");
            let want = (i % 2 == 0).then_some(i);
            assert_eq!(table.get(url_key(&url), &url), want);
        }
    }

    #[test]
    fn a_clone_shares_its_urls() {
        let mut table: KeyTable<f64> = KeyTable::new();
        let url: Arc<str> = Arc::from("https://shared.weebly.com/");
        table.insert(url_key(&url), url.clone(), 0.5);
        let copy = table.with_room(100);
        assert_eq!(Arc::strong_count(&url), 3);
        assert_eq!(copy.get(url_key(&url), &url), Some(0.5));
    }
}
