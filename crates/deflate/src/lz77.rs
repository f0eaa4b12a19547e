//! LZ77 string matching with hash chains and lazy evaluation.
//!
//! The matcher state lives in a reusable [`LzState`] — a hash-head table
//! plus a window-bounded `prev` ring — so repeated compressions (a
//! session's per-band DEFLATE post-pass) allocate nothing once warm. The
//! search depth / laziness trade-off is an [`Effort`] level.

/// Maximum backward distance (RFC 1951 window).
pub const MAX_DIST: usize = 32 * 1024;
/// Minimum useful match length.
pub const MIN_MATCH: usize = 3;
/// Maximum match length.
pub const MAX_MATCH: usize = 258;

const HASH_SIZE: usize = 1 << 15;
const NIL: u32 = u32::MAX;

/// Matcher effort: how hard to look for back-references.
///
/// Levels map to the zlib-style knobs (hash-chain probe budget, one-step
/// lazy evaluation, and the "good enough" length that stops the search)
/// plus an LZ4-style miss skip:
///
/// | level     | max chain | lazy | good-enough | miss skip |
/// |-----------|-----------|------|-------------|-----------|
/// | `Fast`    | 32        | no   | 32          | yes       |
/// | `Default` | 128       | yes  | 96          | yes       |
/// | `Best`    | 1024      | yes  | 258         | no        |
///
/// With the miss skip, once 64 positions in a row have gone without a
/// match, the matcher searches only every `1 + (misses >> 6)`-th position
/// (`misses` counts the positions, searched or skipped, since the last
/// match) and emits the positions in between as literals, still inserted
/// into the hash chains. The first match resets the count.
/// Huffman-coded quantization streams hold long match-poor stretches where
/// chain walks cost most of the post-pass time and buy almost nothing; a
/// repeat longer than the current stride is still found, from its first
/// searched position on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Effort {
    /// Shallow chains, greedy-only: highest throughput.
    Fast,
    /// The zlib level-6-like balance (the historical behavior here).
    #[default]
    Default,
    /// Deep chains, always lazy, never settles early: best ratio.
    Best,
}

impl Effort {
    #[inline]
    fn params(self) -> (usize, bool, usize, bool) {
        // (max_chain, lazy, good_enough, miss skip)
        match self {
            Effort::Fast => (32, false, 32, true),
            Effort::Default => (128, true, 96, true),
            Effort::Best => (1024, true, MAX_MATCH, false),
        }
    }
}

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// 3..=258.
        len: u16,
        /// 1..=32768.
        dist: u16,
    },
}

#[inline]
fn hash(window: &[u8], pos: usize) -> usize {
    // Multiplicative hash of the next 3 bytes.
    let v =
        (window[pos] as u32) | ((window[pos + 1] as u32) << 8) | ((window[pos + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> 17) as usize & (HASH_SIZE - 1)
}

/// Longest common prefix of `data[a..]` and `data[b..]`, capped at
/// `MAX_MATCH`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize) -> usize {
    let limit = (data.len() - b).min(MAX_MATCH);
    let mut len = 0usize;
    // Compare 8 bytes at a time.
    while len + 8 <= limit {
        let x = u64::from_le_bytes(data[a + len..a + len + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + len..b + len + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < limit && data[a + len] == data[b + len] {
        len += 1;
    }
    len
}

/// Reusable matcher scratch: hash heads plus a 32 KiB `prev` ring.
///
/// Chains store absolute positions. The ring slot for position `p` is
/// `p & (MAX_DIST - 1)`; because the ring is exactly one window deep and
/// chain walks stop at `MAX_DIST`, an in-window chain entry can never have
/// been overwritten by a newer position during a single tokenize pass —
/// only `head` needs clearing between inputs, never the ring.
pub struct LzState {
    head: Box<[u32]>,
    prev: Box<[u32]>,
}

impl Default for LzState {
    fn default() -> Self {
        Self::new()
    }
}

impl LzState {
    /// Allocates the matcher tables (the only allocation this state makes).
    pub fn new() -> Self {
        Self {
            head: vec![NIL; HASH_SIZE].into_boxed_slice(),
            prev: vec![NIL; MAX_DIST].into_boxed_slice(),
        }
    }

    /// Tokenizes `data` into `tokens` (cleared first) with greedy matching
    /// plus optional one-position lazy evaluation, per `effort`.
    pub fn tokenize_into(&mut self, data: &[u8], effort: Effort, tokens: &mut Vec<Token>) {
        tokens.clear();
        let n = data.len();
        assert!(
            n < u32::MAX as usize - MAX_MATCH,
            "input too large for LZ77"
        );
        if n < MIN_MATCH + 1 {
            tokens.extend(data.iter().map(|&b| Token::Literal(b)));
            return;
        }
        tokens.reserve(n / 4 + 16);
        self.head.fill(NIL);
        let (max_chain, lazy, good_enough, skip_misses) = effort.params();
        let head = &mut self.head;
        let prev = &mut self.prev;

        let find_best = |head: &[u32], prev: &[u32], pos: usize| -> (usize, usize) {
            let mut best_len = 0usize;
            let mut best_dist = 0usize;
            let mut candidate = head[hash(data, pos)];
            let mut chain = 0usize;
            while candidate != NIL && chain < max_chain {
                let c = candidate as usize;
                if c >= pos || pos - c > MAX_DIST {
                    break;
                }
                let len = match_len(data, c, pos);
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                    if len >= good_enough {
                        break;
                    }
                }
                // Chains are strictly decreasing; anything else is a stale
                // ring entry from a prior window lap.
                let next = prev[c & (MAX_DIST - 1)];
                if next >= candidate {
                    break;
                }
                candidate = next;
                chain += 1;
            }
            (best_len, best_dist)
        };

        let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
            if pos + MIN_MATCH <= n {
                let h = hash(data, pos);
                prev[pos & (MAX_DIST - 1)] = head[h];
                head[h] = pos as u32;
            }
        };

        let mut pos = 0usize;
        // Positions since the last match, for the miss skip.
        let mut misses = 0usize;
        while pos < n {
            if pos + MIN_MATCH > n {
                tokens.push(Token::Literal(data[pos]));
                pos += 1;
                continue;
            }
            let (len, dist) = find_best(head, prev, pos);
            if len >= MIN_MATCH {
                misses = 0;
                // Lazy evaluation: would starting at pos+1 do strictly better?
                let take_now = if lazy && pos + 1 + MIN_MATCH <= n && len < good_enough {
                    let (next_len, _) = find_best(head, prev, pos + 1);
                    next_len <= len
                } else {
                    true
                };
                if take_now {
                    tokens.push(Token::Match {
                        len: len as u16,
                        dist: dist as u16,
                    });
                    for p in pos..pos + len {
                        insert(head, prev, p);
                    }
                    pos += len;
                    continue;
                }
            }
            tokens.push(Token::Literal(data[pos]));
            insert(head, prev, pos);
            pos += 1;
            if len < MIN_MATCH && skip_misses {
                // Past 64 positions without a match, pass over the next
                // `misses >> 6` positions unsearched: literals, still
                // chained so later searches can match against them.
                misses += 1;
                let end = (pos + (misses >> 6)).min(n);
                for (p, &b) in (pos..end).zip(&data[pos..end]) {
                    tokens.push(Token::Literal(b));
                    insert(head, prev, p);
                }
                misses += end - pos;
                pos = end;
            }
        }
    }
}

/// Tokenizes `data` with a throwaway [`LzState`] at [`Effort::Default`]
/// (test convenience; real callers hold an `LzState`).
#[cfg(test)]
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let mut state = LzState::new();
    let mut tokens = Vec::new();
    state.tokenize_into(data, Effort::Default, &mut tokens);
    tokens
}

/// Expands tokens back to bytes (test oracle for the matcher).
#[cfg(test)]
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for &t in tokens {
        match t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                // Overlapping copies are byte-serial by definition.
                for i in 0..len as usize {
                    let b = out[start + i];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_expand_to_original() {
        let data = b"abcabcabcabcabc hello hello hello".to_vec();
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        assert!(
            tokens.len() < data.len(),
            "repetition should produce matches"
        );
    }

    #[test]
    fn short_input_is_all_literals() {
        let data = b"ab".to_vec();
        let tokens = tokenize(&data);
        assert_eq!(tokens, vec![Token::Literal(b'a'), Token::Literal(b'b')]);
    }

    #[test]
    fn run_collapses_to_overlapping_match() {
        let data = vec![7u8; 300];
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        // 1 literal + overlapping dist-1 matches.
        assert!(tokens.len() <= 3, "got {} tokens", tokens.len());
        assert!(matches!(tokens[1], Token::Match { dist: 1, .. }));
    }

    #[test]
    fn match_len_is_capped() {
        let data = vec![1u8; 1000];
        assert_eq!(match_len(&data, 0, 1), MAX_MATCH);
    }

    #[test]
    fn incompressible_data_expands_correctly() {
        let data: Vec<u8> = (0..5000u32)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h >> 33) & 0xFF) as u8
            })
            .collect();
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
    }

    #[test]
    fn distant_repeats_within_window_are_found() {
        let mut data = vec![0u8; 10_000];
        let phrase = b"SIGNATURE-PHRASE-1234567890";
        data[100..100 + phrase.len()].copy_from_slice(phrase);
        data[9000..9000 + phrase.len()].copy_from_slice(phrase);
        let tokens = tokenize(&data);
        assert_eq!(expand(&tokens), data);
        let has_far_match = tokens.iter().any(
            |t| matches!(t, Token::Match { dist, len } if *dist as usize > 8000 && *len as usize >= phrase.len() - 2),
        );
        assert!(has_far_match, "the distant phrase repeat should match");
    }

    #[test]
    fn every_effort_level_expands_to_original() {
        let mut data = Vec::new();
        for i in 0..4000u32 {
            data.push((i % 7) as u8);
            if i % 97 == 0 {
                data.extend_from_slice(b"burst-of-structured-text");
            }
        }
        for effort in [Effort::Fast, Effort::Default, Effort::Best] {
            let mut state = LzState::new();
            let mut tokens = Vec::new();
            state.tokenize_into(&data, effort, &mut tokens);
            assert_eq!(expand(&tokens), data, "effort {effort:?}");
        }
    }

    #[test]
    fn reused_state_is_equivalent_to_fresh_state() {
        let first = b"first input with first input repeats".to_vec();
        let second: Vec<u8> = (0..3000u32).map(|i| (i % 13) as u8).collect();
        let mut reused = LzState::new();
        let mut tokens = Vec::new();
        reused.tokenize_into(&first, Effort::Default, &mut tokens);
        reused.tokenize_into(&second, Effort::Default, &mut tokens);
        let fresh = tokenize(&second);
        assert_eq!(tokens, fresh, "stale state must not leak across inputs");
    }

    /// xorshift64 bytes: a match-poor stretch.
    fn noise(len: usize, mut h: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                h ^= h << 13;
                h ^= h >> 7;
                h ^= h << 17;
                (h >> 56) as u8
            })
            .collect()
    }

    /// FNV-1a over the token stream.
    fn token_digest(tokens: &[Token]) -> u64 {
        tokens.iter().fold(0xcbf2_9ce4_8422_2325, |d, t| {
            let v = match *t {
                Token::Literal(b) => b as u64,
                Token::Match { len, dist } => 1 << 32 | (len as u64) << 16 | dist as u64,
            };
            (d ^ v).wrapping_mul(0x100_0000_01b3)
        })
    }

    #[test]
    fn phrase_after_a_long_match_poor_stretch_is_still_matched() {
        // 256 KiB of noise winds the miss skip up; the second copy of the
        // phrase must still be found.
        let phrase: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        let mut data = noise(256 * 1024, 0x2545_F491_4F6C_DD1D);
        let first = data.len();
        data.extend_from_slice(&phrase);
        data.extend_from_slice(&noise(1024, 7));
        let second = data.len();
        data.extend_from_slice(&phrase);
        data.extend_from_slice(&noise(64, 9));
        for effort in [Effort::Fast, Effort::Default] {
            let mut state = LzState::new();
            let mut tokens = Vec::new();
            state.tokenize_into(&data, effort, &mut tokens);
            assert_eq!(expand(&tokens), data, "effort {effort:?}");
            let dist = (second - first) as u16;
            let matched: usize = tokens
                .iter()
                .filter_map(|t| match *t {
                    Token::Match { len, dist: d } if d == dist => Some(len as usize),
                    _ => None,
                })
                .sum();
            assert!(
                matched >= phrase.len() / 2,
                "effort {effort:?}: {matched} of {} phrase bytes matched",
                phrase.len()
            );
        }
    }

    #[test]
    fn best_effort_does_not_skip() {
        // Noise with a compressible burst every 4 KiB. The digest was taken
        // from the matcher before the miss skip existed: `Best` must keep
        // searching every position and produce the same tokens.
        let mut data = noise(200_000, 0x2545_F491_4F6C_DD1D);
        for (i, b) in data.iter_mut().enumerate() {
            if (i / 1024) % 4 == 3 {
                *b = (i % 11) as u8;
            }
        }
        let mut state = LzState::new();
        let mut tokens = Vec::new();
        state.tokenize_into(&data, Effort::Best, &mut tokens);
        assert_eq!(tokens.len(), 150_346);
        assert_eq!(token_digest(&tokens), 0x1bca_ce3a_8a02_2615);
    }

    #[test]
    fn deeper_effort_never_produces_more_tokens() {
        // More chain probes can only find equal-or-longer matches.
        let mut data = Vec::new();
        for i in 0..20_000u64 {
            let h = i.wrapping_mul(0x2545_F491_4F6C_DD1D);
            data.push(if i % 3 == 0 { (h >> 60) as u8 } else { 7 });
        }
        let mut state = LzState::new();
        let mut fast = Vec::new();
        let mut best = Vec::new();
        state.tokenize_into(&data, Effort::Fast, &mut fast);
        state.tokenize_into(&data, Effort::Best, &mut best);
        assert_eq!(expand(&fast), data);
        assert_eq!(expand(&best), data);
        assert!(
            best.len() <= fast.len(),
            "best {} fast {}",
            best.len(),
            fast.len()
        );
    }
}
