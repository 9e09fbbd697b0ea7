//! Synthetic English→German parallel corpus with ground-truth POS tags.
//!
//! The paper's NMT experiments (§6.3) train probes on an English–German
//! WMT15 corpus annotated by CoreNLP. That corpus is not shippable here, so
//! this module generates the closest synthetic equivalent: template-based
//! English sentences with known POS tags, paired with "German" produced by
//! dictionary mapping plus a verb-final reordering rule for subordinate
//! clauses (the structural divergence that makes the translation task
//! non-trivial). Umlauts are transliterated to ASCII to keep the token
//! model simple; this does not affect the probe analyses.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A bilingual lexicon entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    en: &'static str,
    de: &'static str,
    tag: &'static str,
}

const NOUNS: &[Entry] = &[
    Entry {
        en: "dog",
        de: "hund",
        tag: "NN",
    },
    Entry {
        en: "cat",
        de: "katze",
        tag: "NN",
    },
    Entry {
        en: "house",
        de: "haus",
        tag: "NN",
    },
    Entry {
        en: "book",
        de: "buch",
        tag: "NN",
    },
    Entry {
        en: "child",
        de: "kind",
        tag: "NN",
    },
    Entry {
        en: "man",
        de: "mann",
        tag: "NN",
    },
    Entry {
        en: "woman",
        de: "frau",
        tag: "NN",
    },
    Entry {
        en: "apple",
        de: "apfel",
        tag: "NN",
    },
    Entry {
        en: "car",
        de: "auto",
        tag: "NN",
    },
    Entry {
        en: "tree",
        de: "baum",
        tag: "NN",
    },
    Entry {
        en: "water",
        de: "wasser",
        tag: "NN",
    },
    Entry {
        en: "bread",
        de: "brot",
        tag: "NN",
    },
];

const PLURAL_NOUNS: &[Entry] = &[
    Entry {
        en: "dogs",
        de: "hunde",
        tag: "NNS",
    },
    Entry {
        en: "books",
        de: "buecher",
        tag: "NNS",
    },
    Entry {
        en: "children",
        de: "kinder",
        tag: "NNS",
    },
    Entry {
        en: "apples",
        de: "aepfel",
        tag: "NNS",
    },
    Entry {
        en: "trees",
        de: "baeume",
        tag: "NNS",
    },
];

const VERBS_VBZ: &[Entry] = &[
    Entry {
        en: "sees",
        de: "sieht",
        tag: "VBZ",
    },
    Entry {
        en: "eats",
        de: "isst",
        tag: "VBZ",
    },
    Entry {
        en: "reads",
        de: "liest",
        tag: "VBZ",
    },
    Entry {
        en: "finds",
        de: "findet",
        tag: "VBZ",
    },
    Entry {
        en: "likes",
        de: "mag",
        tag: "VBZ",
    },
    Entry {
        en: "knows",
        de: "kennt",
        tag: "VBZ",
    },
    Entry {
        en: "watches",
        de: "schaut",
        tag: "VBZ",
    },
];

const VERBS_VBD: &[Entry] = &[
    Entry {
        en: "saw",
        de: "sah",
        tag: "VBD",
    },
    Entry {
        en: "found",
        de: "fand",
        tag: "VBD",
    },
    Entry {
        en: "read",
        de: "las",
        tag: "VBD",
    },
    Entry {
        en: "ate",
        de: "ass",
        tag: "VBD",
    },
    Entry {
        en: "knew",
        de: "kannte",
        tag: "VBD",
    },
];

const ADJECTIVES: &[Entry] = &[
    Entry {
        en: "big",
        de: "gross",
        tag: "JJ",
    },
    Entry {
        en: "small",
        de: "klein",
        tag: "JJ",
    },
    Entry {
        en: "red",
        de: "rot",
        tag: "JJ",
    },
    Entry {
        en: "old",
        de: "alt",
        tag: "JJ",
    },
    Entry {
        en: "young",
        de: "jung",
        tag: "JJ",
    },
    Entry {
        en: "good",
        de: "gut",
        tag: "JJ",
    },
];

const COMPARATIVES: &[Entry] = &[
    Entry {
        en: "bigger",
        de: "groesser",
        tag: "JJR",
    },
    Entry {
        en: "smaller",
        de: "kleiner",
        tag: "JJR",
    },
    Entry {
        en: "older",
        de: "aelter",
        tag: "JJR",
    },
];

const ADVERBS: &[Entry] = &[
    Entry {
        en: "quickly",
        de: "schnell",
        tag: "RB",
    },
    Entry {
        en: "often",
        de: "oft",
        tag: "RB",
    },
    Entry {
        en: "here",
        de: "hier",
        tag: "RB",
    },
    Entry {
        en: "never",
        de: "nie",
        tag: "RB",
    },
    Entry {
        en: "slowly",
        de: "langsam",
        tag: "RB",
    },
];

const DETERMINERS: &[Entry] = &[
    Entry {
        en: "the",
        de: "der",
        tag: "DT",
    },
    Entry {
        en: "a",
        de: "ein",
        tag: "DT",
    },
    Entry {
        en: "every",
        de: "jeder",
        tag: "DT",
    },
    Entry {
        en: "this",
        de: "dieser",
        tag: "DT",
    },
];

const PREPOSITIONS: &[Entry] = &[
    Entry {
        en: "in",
        de: "in",
        tag: "IN",
    },
    Entry {
        en: "with",
        de: "mit",
        tag: "IN",
    },
    Entry {
        en: "near",
        de: "bei",
        tag: "IN",
    },
    Entry {
        en: "under",
        de: "unter",
        tag: "IN",
    },
];

const PRONOUNS: &[Entry] = &[
    Entry {
        en: "he",
        de: "er",
        tag: "PRP",
    },
    Entry {
        en: "she",
        de: "sie",
        tag: "PRP",
    },
    Entry {
        en: "it",
        de: "es",
        tag: "PRP",
    },
    Entry {
        en: "we",
        de: "wir",
        tag: "PRP",
    },
    Entry {
        en: "they",
        de: "sie",
        tag: "PRP",
    },
];

const CONJUNCTIONS: &[Entry] = &[
    Entry {
        en: "and",
        de: "und",
        tag: "CC",
    },
    Entry {
        en: "or",
        de: "oder",
        tag: "CC",
    },
    Entry {
        en: "but",
        de: "aber",
        tag: "CC",
    },
];

const CARDINALS: &[Entry] = &[
    Entry {
        en: "two",
        de: "zwei",
        tag: "CD",
    },
    Entry {
        en: "three",
        de: "drei",
        tag: "CD",
    },
    Entry {
        en: "four",
        de: "vier",
        tag: "CD",
    },
];

const NAMES: &[Entry] = &[
    Entry {
        en: "Anna",
        de: "Anna",
        tag: "NNP",
    },
    Entry {
        en: "Max",
        de: "Max",
        tag: "NNP",
    },
    Entry {
        en: "Berlin",
        de: "Berlin",
        tag: "NNP",
    },
];

/// A slot in a sentence template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Nn,
    Nns,
    Vbz,
    Vbd,
    Jj,
    Jjr,
    Rb,
    Dt,
    In,
    Prp,
    Cc,
    Cd,
    Nnp,
    /// Literal subordinator "because"/"weil" introducing a verb-final
    /// German clause. Tagged IN.
    Because,
    Period,
}

impl Slot {
    fn pool(&self) -> Option<&'static [Entry]> {
        match self {
            Slot::Nn => Some(NOUNS),
            Slot::Nns => Some(PLURAL_NOUNS),
            Slot::Vbz => Some(VERBS_VBZ),
            Slot::Vbd => Some(VERBS_VBD),
            Slot::Jj => Some(ADJECTIVES),
            Slot::Jjr => Some(COMPARATIVES),
            Slot::Rb => Some(ADVERBS),
            Slot::Dt => Some(DETERMINERS),
            Slot::In => Some(PREPOSITIONS),
            Slot::Prp => Some(PRONOUNS),
            Slot::Cc => Some(CONJUNCTIONS),
            Slot::Cd => Some(CARDINALS),
            Slot::Nnp => Some(NAMES),
            Slot::Because | Slot::Period => None,
        }
    }
}

/// Sentence templates. Each is a main clause, optionally followed by a
/// `because` subordinate clause (whose German verb goes clause-final).
const TEMPLATES: &[&[Slot]] = &[
    &[
        Slot::Dt,
        Slot::Jj,
        Slot::Nn,
        Slot::Vbz,
        Slot::Dt,
        Slot::Nn,
        Slot::Period,
    ],
    &[
        Slot::Prp,
        Slot::Vbd,
        Slot::Dt,
        Slot::Nn,
        Slot::In,
        Slot::Dt,
        Slot::Nn,
        Slot::Period,
    ],
    &[Slot::Dt, Slot::Nn, Slot::Vbz, Slot::Rb, Slot::Period],
    &[
        Slot::Prp,
        Slot::Vbz,
        Slot::Dt,
        Slot::Nn,
        Slot::Cc,
        Slot::Prp,
        Slot::Vbz,
        Slot::Dt,
        Slot::Nn,
        Slot::Period,
    ],
    &[
        Slot::Cd,
        Slot::Nns,
        Slot::Vbd,
        Slot::Dt,
        Slot::Jj,
        Slot::Nn,
        Slot::Period,
    ],
    &[
        Slot::Nnp,
        Slot::Vbz,
        Slot::Dt,
        Slot::Jjr,
        Slot::Nn,
        Slot::Period,
    ],
    &[
        Slot::Dt,
        Slot::Nn,
        Slot::In,
        Slot::Dt,
        Slot::Nn,
        Slot::Vbz,
        Slot::Rb,
        Slot::Period,
    ],
    &[
        Slot::Prp,
        Slot::Vbz,
        Slot::Dt,
        Slot::Nn,
        Slot::Because,
        Slot::Prp,
        Slot::Vbz,
        Slot::Dt,
        Slot::Nn,
        Slot::Period,
    ],
    &[
        Slot::Nnp,
        Slot::Cc,
        Slot::Nnp,
        Slot::Vbd,
        Slot::Dt,
        Slot::Nns,
        Slot::Period,
    ],
    &[
        Slot::Dt,
        Slot::Jj,
        Slot::Jj,
        Slot::Nn,
        Slot::Vbd,
        Slot::Dt,
        Slot::Nn,
        Slot::Rb,
        Slot::Period,
    ],
];

/// One aligned sentence pair with source-side POS annotations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SentencePair {
    /// English tokens.
    pub source: Vec<String>,
    /// German tokens (ASCII-transliterated).
    pub target: Vec<String>,
    /// Penn Treebank tag of each source token.
    pub source_tags: Vec<String>,
}

/// A generated parallel corpus.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ParallelCorpus {
    /// The sentence pairs.
    pub pairs: Vec<SentencePair>,
}

impl ParallelCorpus {
    /// Average source-sentence length in tokens.
    pub fn mean_source_len(&self) -> f32 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        self.pairs.iter().map(|p| p.source.len()).sum::<usize>() as f32 / self.pairs.len() as f32
    }

    /// Sorted set of tags that actually occur in the corpus.
    pub fn observed_tags(&self) -> Vec<String> {
        let mut set: std::collections::BTreeSet<String> = Default::default();
        for p in &self.pairs {
            set.extend(p.source_tags.iter().cloned());
        }
        set.into_iter().collect()
    }
}

/// Generates `n` sentence pairs with the given seed.
pub fn generate_corpus(n: usize, seed: u64) -> ParallelCorpus {
    let mut rng = deepbase_tensor::init::seeded_rng(seed);
    let pairs = (0..n).map(|_| generate_pair(&mut rng)).collect();
    ParallelCorpus { pairs }
}

fn generate_pair(rng: &mut impl Rng) -> SentencePair {
    let template = TEMPLATES.choose(rng).expect("templates non-empty");
    let mut source = Vec::with_capacity(template.len());
    let mut tags = Vec::with_capacity(template.len());
    // German tokens per clause; clause 1 (if present) is the subordinate.
    let mut de_clauses: Vec<Vec<String>> = vec![Vec::new()];
    let mut subordinate = false;

    for slot in template.iter() {
        match slot {
            Slot::Period => {
                source.push(".".to_string());
                tags.push(".".to_string());
            }
            Slot::Because => {
                source.push("because".to_string());
                tags.push("IN".to_string());
                de_clauses.push(vec!["weil".to_string()]);
                subordinate = true;
            }
            other => {
                let pool = other.pool().expect("slot has a pool");
                let entry = pool.choose(rng).expect("pool non-empty");
                source.push(entry.en.to_string());
                tags.push(entry.tag.to_string());
                let clause = de_clauses.last_mut().expect("clause list non-empty");
                clause.push(entry.de.to_string());
            }
        }
    }

    // German surface order: main clause verbatim; subordinate clause has
    // its finite verb moved to the end (V-final).
    let mut target = Vec::new();
    for (i, mut clause) in de_clauses.into_iter().enumerate() {
        if i > 0 && subordinate {
            // First token is "weil"; find the verb (the token translating a
            // VBZ/VBD slot is at the same relative position as in English:
            // directly after the subject pronoun, i.e. index 2 of the
            // clause). Move it to the end.
            if clause.len() > 2 {
                let verb = clause.remove(2);
                clause.push(verb);
            }
        }
        target.extend(clause);
    }
    target.push(".".to_string());

    SentencePair {
        source,
        target,
        source_tags: tags,
    }
}

/// A word-level vocabulary with the reserved symbols sequence models need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WordVocab {
    words: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, u32>,
}

/// End-of-sequence: one of the reserved ids every [`WordVocab`] starts
/// with (`<pad>` 0, `<bos>` 1, `<eos>` 2, `<unk>` 3).
pub const EOS_ID: u32 = 2;
/// Unknown word.
const UNK_ID: u32 = 3;

impl WordVocab {
    /// Builds a vocabulary over an iterator of tokens.
    pub fn build<'a>(tokens: impl IntoIterator<Item = &'a str>) -> WordVocab {
        let mut words: Vec<String> = ["<pad>", "<bos>", "<eos>", "<unk>"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut index: HashMap<String, u32> = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i as u32))
            .collect();
        for tok in tokens {
            if !index.contains_key(tok) {
                index.insert(tok.to_string(), words.len() as u32);
                words.push(tok.to_string());
            }
        }
        WordVocab { words, index }
    }

    /// Vocabulary size including reserved symbols.
    pub fn size(&self) -> usize {
        self.words.len()
    }

    /// Token id (UNK for unknown tokens).
    pub(crate) fn id(&self, word: &str) -> u32 {
        self.index.get(word).copied().unwrap_or(UNK_ID)
    }

    /// Encodes a token sequence (no BOS/EOS added).
    pub fn encode(&self, tokens: &[String]) -> Vec<u32> {
        tokens.iter().map(|t| self.id(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = generate_corpus(20, 5);
        let b = generate_corpus(20, 5);
        assert_eq!(a.pairs, b.pairs);
        let c = generate_corpus(20, 6);
        assert_ne!(a.pairs, c.pairs);
    }

    #[test]
    fn tags_align_with_tokens() {
        let corpus = generate_corpus(50, 1);
        for pair in &corpus.pairs {
            assert_eq!(pair.source.len(), pair.source_tags.len());
            assert!(pair.source.len() >= 5);
        }
    }

    #[test]
    fn corpus_covers_many_tag_types() {
        let corpus = generate_corpus(300, 3);
        let tags = corpus.observed_tags();
        // Templates cover at least these categories.
        for required in [
            "DT", "NN", "VBZ", "VBD", "JJ", "RB", "PRP", "CC", "IN", "CD", "NNP", ".",
        ] {
            assert!(
                tags.contains(&required.to_string()),
                "missing {required}: {tags:?}"
            );
        }
    }

    #[test]
    fn sentences_end_with_period() {
        let corpus = generate_corpus(30, 4);
        for pair in &corpus.pairs {
            assert_eq!(pair.source.last().unwrap(), ".");
            assert_eq!(pair.target.last().unwrap(), ".");
        }
    }

    #[test]
    fn subordinate_clause_is_verb_final_in_german() {
        // Find a "because" sentence and check the German verb moved.
        let corpus = generate_corpus(500, 7);
        let pair = corpus
            .pairs
            .iter()
            .find(|p| p.source.contains(&"because".to_string()))
            .expect("template 8 must appear in 500 samples");
        let weil_pos = pair.target.iter().position(|t| t == "weil").unwrap();
        // After "weil": subject, object determiner, object noun, then verb.
        let clause = &pair.target[weil_pos + 1..pair.target.len() - 1];
        assert_eq!(clause.len(), 4, "clause {clause:?}");
        // The English verb is token 6 (index of second VBZ); its German
        // translation must be the final token of the clause.
        let en_verb = &pair.source[6];
        let expected_de = VERBS_VBZ.iter().find(|e| e.en == en_verb).unwrap().de;
        assert_eq!(clause.last().unwrap(), expected_de);
    }

    #[test]
    fn mean_length_matches_paper_scale() {
        // Paper: 24.2 words/sentence on WMT; ours are shorter but must be
        // non-trivial (>= 5 tokens).
        let corpus = generate_corpus(200, 8);
        assert!(corpus.mean_source_len() >= 5.0);
    }

    #[test]
    fn word_vocab_reserved_ids() {
        let v = WordVocab::build(["dog", "sees"]);
        assert_eq!(v.id("<pad>"), 0);
        assert_eq!(v.id("<bos>"), 1);
        assert_eq!(v.id("<eos>"), EOS_ID);
        assert_eq!(v.id("never-seen"), UNK_ID);
        assert_eq!(v.size(), 6);
    }

    #[test]
    fn word_vocab_encode_roundtrip() {
        let corpus = generate_corpus(10, 9);
        let v = WordVocab::build(
            corpus
                .pairs
                .iter()
                .flat_map(|p| p.source.iter().map(|s| s.as_str())),
        );
        let pair = &corpus.pairs[0];
        let ids = v.encode(&pair.source);
        for (id, tok) in ids.iter().zip(pair.source.iter()) {
            assert_eq!(&v.words[*id as usize], tok);
        }
    }
}
