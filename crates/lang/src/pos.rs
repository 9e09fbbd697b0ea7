//! Part-of-speech tagging: the Penn Treebank tagset and a rule-based
//! tagger standing in for Stanford CoreNLP (paper §6.3: the NMT analyses
//! annotate tokens with 46 POS tags and probe encoder activations for
//! them).
//!
//! The synthetic parallel corpus ([`crate::corpus`]) carries ground-truth
//! tags by construction; this tagger provides the independent
//! "annotation library" path so experiments can compare probe scores under
//! generated vs. tagged annotations, as the paper does with CoreNLP.

use serde::{Deserialize, Serialize};

/// The 46-tag Penn Treebank tagset (36 word tags + 10 punctuation/symbol
/// tags), as used by the paper's POS probes.
pub(crate) const PENN_TAGS: &[&str] = &[
    "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD", "NN", "NNS", "NNP", "NNPS",
    "PDT", "POS", "PRP", "PRP$", "RB", "RBR", "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG",
    "VBN", "VBP", "VBZ", "WDT", "WP", "WP$", "WRB", ".", ",", ":", "(", ")", "\"", "'", "`", "#",
    "$",
];

/// Index of a tag in the Penn Treebank tagset (46 tags).
pub fn tag_id(tag: &str) -> Option<usize> {
    PENN_TAGS.iter().position(|&t| t == tag)
}

/// A deterministic rule-based POS tagger: closed-class lexicon first, then
/// suffix morphology, then capitalization/digit heuristics, defaulting to
/// `NN`. Accuracy on the synthetic corpus is high because the corpus
/// vocabulary is covered; on arbitrary English it behaves like a classic
/// baseline tagger.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PosTagger;

impl PosTagger {
    /// Creates the tagger.
    pub fn new() -> Self {
        PosTagger
    }

    /// Tags one token (context-free).
    pub fn tag(&self, word: &str) -> &'static str {
        let lower = word.to_ascii_lowercase();
        // Punctuation.
        match word {
            "." | "!" | "?" => return ".",
            "," => return ",",
            ":" | ";" => return ":",
            "(" => return "(",
            ")" => return ")",
            "\"" => return "\"",
            "'" => return "'",
            "$" => return "$",
            "#" => return "#",
            _ => {}
        }
        // Closed-class lexicon.
        if let Some(tag) = lexicon_tag(&lower) {
            return tag;
        }
        // Digits.
        if word
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == ',')
            && word.chars().any(|c| c.is_ascii_digit())
        {
            return "CD";
        }
        // Morphological suffixes (ordered longest-first).
        for (suffix, tag) in SUFFIX_RULES {
            if lower.len() > suffix.len() && lower.ends_with(suffix) {
                return tag;
            }
        }
        // Capitalized unknown word: proper noun.
        if word
            .chars()
            .next()
            .map(|c| c.is_ascii_uppercase())
            .unwrap_or(false)
        {
            return "NNP";
        }
        "NN"
    }
}

const SUFFIX_RULES: &[(&str, &str)] = &[
    ("ness", "NN"),
    ("ment", "NN"),
    ("tion", "NN"),
    ("sion", "NN"),
    ("able", "JJ"),
    ("ible", "JJ"),
    ("ical", "JJ"),
    ("ious", "JJ"),
    ("est", "JJS"),
    ("ing", "VBG"),
    ("ous", "JJ"),
    ("ful", "JJ"),
    ("ive", "JJ"),
    ("ish", "JJ"),
    ("ed", "VBD"),
    ("ly", "RB"),
    ("er", "JJR"),
    ("s", "NNS"),
];

fn lexicon_tag(lower: &str) -> Option<&'static str> {
    let tag = match lower {
        // Determiners.
        "the" | "a" | "an" | "this" | "that" | "these" | "those" | "each" | "every" | "no" => "DT",
        // Coordinating conjunctions (the paper's §4.4 example).
        "and" | "or" | "but" | "nor" | "yet" => "CC",
        // Prepositions / subordinating conjunctions.
        "in" | "on" | "at" | "by" | "with" | "from" | "of" | "for" | "about" | "into" | "over"
        | "under" | "after" | "before" | "because" | "while" | "if" | "near" => "IN",
        // Personal pronouns.
        "i" | "you" | "he" | "she" | "it" | "we" | "they" | "him" | "her" | "them" | "me"
        | "us" => "PRP",
        // Possessive pronouns.
        "my" | "your" | "his" | "its" | "our" | "their" => "PRP$",
        // Modals.
        "can" | "could" | "will" | "would" | "shall" | "should" | "may" | "might" | "must" => "MD",
        // Wh-words.
        "who" | "what" | "whom" => "WP",
        "whose" => "WP$",
        "which" => "WDT",
        "where" | "when" | "why" | "how" => "WRB",
        // Existential there.
        "there" => "EX",
        // To.
        "to" => "TO",
        // Common adverbs not ending in -ly.
        "very" | "quite" | "rather" | "too" | "so" | "now" | "then" | "here" | "always"
        | "never" | "often" | "again" | "still" => "RB",
        // Common irregular verbs, base/3rd/past forms.
        "be" | "have" | "do" | "go" | "see" | "say" | "eat" | "run" | "sing" | "watch" | "read"
        | "write" | "find" | "like" | "want" | "know" => "VB",
        "is" | "has" | "does" | "goes" | "sees" | "says" | "eats" | "runs" | "sings"
        | "watches" | "reads" | "writes" | "finds" | "likes" | "wants" | "knows" => "VBZ",
        "are" | "am" => "VBP",
        "was" | "were" | "went" | "saw" | "said" | "ate" | "ran" | "sang" | "found" | "knew"
        | "wrote" => "VBD",
        "been" | "done" | "gone" | "seen" | "eaten" | "sung" | "known" | "written" => "VBN",
        // Interjections.
        "oh" | "ah" | "wow" | "hey" => "UH",
        _ => return None,
    };
    Some(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagset_has_46_tags() {
        assert_eq!(PENN_TAGS.len(), 46);
        // No duplicates.
        let set: std::collections::HashSet<_> = PENN_TAGS.iter().collect();
        assert_eq!(set.len(), 46);
    }

    #[test]
    fn tag_id_roundtrips() {
        for (i, tag) in PENN_TAGS.iter().enumerate() {
            assert_eq!(tag_id(tag), Some(i));
        }
        assert_eq!(tag_id("NOPE"), None);
    }

    #[test]
    fn closed_class_words() {
        let t = PosTagger::new();
        assert_eq!(t.tag("the"), "DT");
        assert_eq!(t.tag("and"), "CC");
        assert_eq!(t.tag("in"), "IN");
        assert_eq!(t.tag("he"), "PRP");
        assert_eq!(t.tag("their"), "PRP$");
        assert_eq!(t.tag("should"), "MD");
        assert_eq!(t.tag("to"), "TO");
    }

    #[test]
    fn verbs_by_form() {
        let t = PosTagger::new();
        assert_eq!(t.tag("watch"), "VB");
        assert_eq!(t.tag("watches"), "VBZ");
        assert_eq!(t.tag("watched"), "VBD");
        assert_eq!(t.tag("watching"), "VBG");
        assert_eq!(t.tag("seen"), "VBN");
        assert_eq!(t.tag("are"), "VBP");
    }

    #[test]
    fn morphology_rules() {
        let t = PosTagger::new();
        assert_eq!(t.tag("quickly"), "RB");
        assert_eq!(t.tag("happiness"), "NN");
        assert_eq!(t.tag("walking"), "VBG");
        assert_eq!(t.tag("jumped"), "VBD");
        assert_eq!(t.tag("dogs"), "NNS");
        assert_eq!(t.tag("famous"), "JJ");
        assert_eq!(t.tag("greatest"), "JJS");
    }

    #[test]
    fn numbers_and_punctuation() {
        let t = PosTagger::new();
        assert_eq!(t.tag("42"), "CD");
        assert_eq!(t.tag("3.14"), "CD");
        assert_eq!(t.tag("."), ".");
        assert_eq!(t.tag(","), ",");
        assert_eq!(t.tag("("), "(");
    }

    #[test]
    fn capitalized_unknowns_are_proper_nouns() {
        let t = PosTagger::new();
        assert_eq!(t.tag("Rick"), "NNP");
        assert_eq!(t.tag("Morty"), "NNP");
    }

    #[test]
    fn default_is_common_noun() {
        assert_eq!(PosTagger::new().tag("zorp"), "NN");
    }

    #[test]
    fn paper_example_sentence() {
        // "He watched Rick and Morty ." — the §4.4 perturbation example.
        let t = PosTagger::new();
        let words = ["He", "watched", "Rick", "and", "Morty", "."];
        let tags: Vec<&str> = words.iter().map(|w| t.tag(w)).collect();
        assert_eq!(tags, vec!["PRP", "VBD", "NNP", "CC", "NNP", "."]);
    }

    #[test]
    fn all_emitted_tags_are_in_tagset() {
        let t = PosTagger::new();
        for word in [
            "the",
            "zorp",
            "Running",
            "42",
            ".",
            "watched",
            "carefully",
            "greatest",
        ] {
            let tag = t.tag(word);
            assert!(tag_id(tag).is_some(), "tag {tag} for {word} not in tagset");
        }
    }
}
