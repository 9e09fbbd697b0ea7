//! Character vocabularies and the sliding-window record layout used by the
//! paper's RNN models.
//!
//! Records in DeepBase are fixed-length symbol vectors (paper §3): the SQL
//! auto-completion model reads a window of `ns` characters (left-padded
//! with `~`, visible in Fig. 1) and predicts the next character; inspection
//! records are windows with a stride (§6.2 footnote: stride 5).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Padding character (id 0 in every vocabulary), matching the `~` glyph of
/// the paper's Fig. 1.
pub const PAD: char = '~';

/// A character vocabulary with a reserved padding symbol.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vocab {
    chars: Vec<char>,
    #[serde(skip)]
    index: HashMap<char, u32>,
}

impl Vocab {
    /// Builds a vocabulary from an alphabet; `PAD` is prepended as id 0 if
    /// not present, duplicates are dropped, order is otherwise preserved.
    pub fn from_alphabet(alphabet: &[char]) -> Vocab {
        let mut chars = vec![PAD];
        for &c in alphabet {
            if !chars.contains(&c) {
                chars.push(c);
            }
        }
        let index = chars
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        Vocab { chars, index }
    }

    /// Number of symbols (including padding).
    pub fn size(&self) -> usize {
        self.chars.len()
    }

    /// Id of the padding symbol (always 0).
    pub fn pad_id(&self) -> u32 {
        0
    }

    /// Id of a character; unknown characters map to padding.
    pub fn id(&self, c: char) -> u32 {
        self.index.get(&c).copied().unwrap_or(0)
    }

    /// Character for an id; out-of-range ids map to padding.
    pub fn char(&self, id: u32) -> char {
        self.chars.get(id as usize).copied().unwrap_or(PAD)
    }

    /// Encodes a string to symbol ids.
    pub fn encode(&self, text: &str) -> Vec<u32> {
        text.chars().map(|c| self.id(c)).collect()
    }

    /// Decodes symbol ids back to a string.
    pub fn decode(&self, ids: &[u32]) -> String {
        ids.iter().map(|&i| self.char(i)).collect()
    }
}

/// One training/inspection window: `ns` characters of context (left-padded)
/// and, when the window is not at end-of-string, the next character to
/// predict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// The window text, exactly `ns` characters, left-padded with [`PAD`].
    pub text: String,
    /// Offset into the source string of the *first non-pad* character
    /// (i.e. the window covers `source[offset .. offset + visible]`).
    pub offset: usize,
    /// Number of non-pad characters in the window.
    pub visible: usize,
    /// The character following the window in the source, if any.
    pub target: Option<char>,
}

/// Produces sliding windows over `source`: for positions `p = stride, 2*stride,
/// ...` the window holds the `ns` characters ending just before `p`'s
/// target character. Every window has length exactly `ns`.
pub fn sliding_windows(source: &str, ns: usize, stride: usize) -> Vec<Window> {
    assert!(ns > 0 && stride > 0, "ns and stride must be positive");
    let chars: Vec<char> = source.chars().collect();
    let mut windows = Vec::new();
    let mut p = stride.min(chars.len());
    if chars.is_empty() {
        return windows;
    }
    loop {
        // Window covers chars[start..p], left-padded to ns.
        let start = p.saturating_sub(ns);
        let visible = p - start;
        let mut text = String::with_capacity(ns);
        for _ in 0..(ns - visible) {
            text.push(PAD);
        }
        text.extend(&chars[start..p]);
        windows.push(Window {
            text,
            offset: start,
            visible,
            target: chars.get(p).copied(),
        });
        if p >= chars.len() {
            break;
        }
        p = (p + stride).min(chars.len());
    }
    windows
}

/// Slices a per-character behavior vector of the *source* string into the
/// per-symbol behavior of a window, padding positions receiving 0. This is
/// how parse-derived hypotheses (computed once on the full record, §6.1)
/// are projected onto stride windows.
pub fn project_behavior(source_behavior: &[f32], window: &Window, ns: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; ns];
    let pad = ns - window.visible;
    for i in 0..window.visible {
        let src = window.offset + i;
        if src < source_behavior.len() {
            out[pad + i] = source_behavior[src];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_reserves_pad_as_zero() {
        let v = Vocab::from_alphabet(&['a', 'b']);
        assert_eq!(v.pad_id(), 0);
        assert_eq!(v.char(0), PAD);
        assert_eq!(v.size(), 3);
    }

    #[test]
    fn vocab_dedups_and_handles_pad_in_alphabet() {
        let v = Vocab::from_alphabet(&['a', 'a', PAD, 'b']);
        assert_eq!(v.size(), 3);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let v = Vocab::from_alphabet(&['S', 'E', 'L', 'C', 'T', ' ']);
        let ids = v.encode("SELECT");
        assert_eq!(v.decode(&ids), "SELECT");
    }

    #[test]
    fn unknown_chars_become_pad() {
        let v = Vocab::from_alphabet(&['a']);
        assert_eq!(v.encode("xa"), vec![0, 1]);
        assert_eq!(v.decode(&[99]), PAD.to_string());
    }

    #[test]
    fn windows_left_pad_to_ns() {
        let ws = sliding_windows("abcdef", 4, 2);
        assert_eq!(ws[0].text, "~~ab");
        assert_eq!(ws[0].target, Some('c'));
        assert_eq!(ws[0].visible, 2);
        assert_eq!(ws[0].offset, 0);
    }

    #[test]
    fn windows_advance_by_stride() {
        let ws = sliding_windows("abcdefgh", 4, 2);
        let texts: Vec<&str> = ws.iter().map(|w| w.text.as_str()).collect();
        assert_eq!(texts, vec!["~~ab", "abcd", "cdef", "efgh"]);
        assert_eq!(ws.last().unwrap().target, None);
    }

    #[test]
    fn windows_all_have_length_ns() {
        for (src, ns, stride) in [("a", 5, 1), ("abcdef", 3, 2), ("xyz", 10, 4)] {
            for w in sliding_windows(src, ns, stride) {
                assert_eq!(w.text.chars().count(), ns, "window {w:?}");
            }
        }
    }

    #[test]
    fn windows_cover_end_of_string() {
        let ws = sliding_windows("abcde", 3, 2);
        assert_eq!(ws.last().unwrap().text, "cde");
        assert_eq!(ws.last().unwrap().target, None);
    }

    #[test]
    fn empty_source_yields_no_windows() {
        assert!(sliding_windows("", 4, 2).is_empty());
    }

    #[test]
    fn project_behavior_aligns_with_padding() {
        let source_b = vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let ws = sliding_windows("abcdef", 4, 2);
        // First window "~~ab": pads then behavior of chars 0..2.
        assert_eq!(
            project_behavior(&source_b, &ws[0], 4),
            vec![0.0, 0.0, 10.0, 20.0]
        );
        // Second window "abcd".
        assert_eq!(
            project_behavior(&source_b, &ws[1], 4),
            vec![10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn project_behavior_handles_short_source() {
        let ws = sliding_windows("abcd", 4, 4);
        let b = project_behavior(&[1.0, 2.0], &ws[0], 4);
        assert_eq!(b, vec![1.0, 2.0, 0.0, 0.0]);
    }
}
