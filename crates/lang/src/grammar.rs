//! Probabilistic context-free grammars: a compact text DSL, weighted
//! sampling, and the data model shared with the Earley parser.
//!
//! The paper's scalability benchmark (§6.1) samples synthetic SQL from a
//! PCFG using NLTK and parses it back with NLTK's chart parser; this module
//! is the NLTK replacement. Terminals are exploded to characters at load
//! time because every model in the paper reads character (or token)
//! sequences and hypothesis behaviors are per-symbol.

use crate::tree::ParseTree;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// A grammar symbol: nonterminal index or single-character terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sym {
    /// Nonterminal, by index into [`Grammar::nonterminal_names`].
    Nt(usize),
    /// Character terminal.
    T(char),
}

/// One production `lhs -> rhs` with a sampling weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Production {
    /// Index of the left-hand-side nonterminal.
    pub lhs: usize,
    /// Right-hand side; empty means an epsilon production.
    pub rhs: Vec<Sym>,
    /// Relative sampling weight among productions of the same LHS.
    pub weight: f32,
}

/// Errors raised while parsing a grammar specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarError {
    /// Description with position context.
    pub msg: String,
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grammar error: {}", self.msg)
    }
}

impl std::error::Error for GrammarError {}

/// A probabilistic context-free grammar over character terminals.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Grammar {
    nt_names: Vec<String>,
    productions: Vec<Production>,
    by_lhs: Vec<Vec<usize>>,
    start: usize,
    /// Minimum derivation depth of each nonterminal (how many expansion
    /// steps are needed to reach an all-terminal string). Drives sampler
    /// termination once `max_depth` is exceeded.
    min_depth: Vec<usize>,
    /// Whether each nonterminal derives the empty string; the Earley
    /// parser reads it on every prediction, so it is computed here once.
    nullable: Vec<bool>,
}

impl Grammar {
    /// Parses a grammar from the spec DSL.
    ///
    /// Syntax (one rule per `;`):
    ///
    /// ```text
    /// # comments run to end of line
    /// query  -> select ' ' from ;
    /// select -> 'SELECT' ;
    /// list   -> {3.0} item | {1.0} item ',' list ;
    /// empty  -> ;                      # epsilon production
    /// ```
    ///
    /// * nonterminals are bare identifiers; the first LHS is the start
    ///   symbol,
    /// * terminals are single-quoted strings (escapes: `\'`, `\\`),
    ///   exploded into one char terminal per character,
    /// * `|` separates alternatives; an optional `{w}` prefix sets the
    ///   alternative's sampling weight (default 1.0).
    pub fn from_spec(spec: &str) -> Result<Grammar, GrammarError> {
        let mut nt_index: HashMap<String, usize> = HashMap::new();
        let mut nt_names: Vec<String> = Vec::new();
        let mut raw_rules: Vec<(usize, Vec<RawAlt>)> = Vec::new();

        let intern = |name: &str,
                      nt_names: &mut Vec<String>,
                      nt_index: &mut HashMap<String, usize>|
         -> usize {
            if let Some(&i) = nt_index.get(name) {
                i
            } else {
                let i = nt_names.len();
                nt_names.push(name.to_string());
                nt_index.insert(name.to_string(), i);
                i
            }
        };

        // Strip comments, then split rules on ';'.
        let cleaned: String = spec
            .lines()
            .map(|l| l.split('#').next().unwrap_or(""))
            .collect::<Vec<_>>()
            .join("\n");
        for (rule_no, rule_text) in cleaned.split(';').enumerate() {
            let rule_text = rule_text.trim();
            if rule_text.is_empty() {
                continue;
            }
            let Some((lhs_text, rhs_text)) = rule_text.split_once("->") else {
                return Err(GrammarError {
                    msg: format!("rule {} missing '->': {:?}", rule_no, rule_text),
                });
            };
            let lhs_name = lhs_text.trim();
            if !is_identifier(lhs_name) {
                return Err(GrammarError {
                    msg: format!("invalid nonterminal name {:?}", lhs_name),
                });
            }
            let lhs = intern(lhs_name, &mut nt_names, &mut nt_index);
            let mut alts = Vec::new();
            for alt_text in split_alternatives(rhs_text) {
                alts.push(parse_alternative(&alt_text, rule_no)?);
            }
            raw_rules.push((lhs, alts));
        }

        if raw_rules.is_empty() {
            return Err(GrammarError {
                msg: "empty grammar".into(),
            });
        }
        let start = raw_rules[0].0;

        // Resolve symbols now that all nonterminals are known: bare
        // identifiers must refer to a defined nonterminal.
        let defined: std::collections::HashSet<usize> =
            raw_rules.iter().map(|(lhs, _)| *lhs).collect();
        let mut productions = Vec::new();
        for (lhs, alts) in &raw_rules {
            for alt in alts {
                let mut rhs = Vec::new();
                for tok in &alt.tokens {
                    match tok {
                        RawTok::Ident(name) => {
                            let Some(&idx) = nt_index.get(name.as_str()) else {
                                return Err(GrammarError {
                                    msg: format!("undefined nonterminal {:?}", name),
                                });
                            };
                            if !defined.contains(&idx) {
                                return Err(GrammarError {
                                    msg: format!("nonterminal {:?} has no productions", name),
                                });
                            }
                            rhs.push(Sym::Nt(idx));
                        }
                        RawTok::Literal(text) => {
                            for ch in text.chars() {
                                rhs.push(Sym::T(ch));
                            }
                        }
                    }
                }
                productions.push(Production {
                    lhs: *lhs,
                    rhs,
                    weight: alt.weight,
                });
            }
        }

        let mut by_lhs = vec![Vec::new(); nt_names.len()];
        for (i, p) in productions.iter().enumerate() {
            by_lhs[p.lhs].push(i);
        }
        // Every referenced nonterminal has productions (checked above), and
        // every defined nonterminal must have at least one alternative.
        for (nt, prods) in by_lhs.iter().enumerate() {
            if prods.is_empty() {
                return Err(GrammarError {
                    msg: format!("nonterminal {:?} has no productions", nt_names[nt]),
                });
            }
        }

        // Minimum derivation depth, by fixpoint: a production's cost is
        // 1 + max over its RHS nonterminals. A nonterminal that never
        // reaches a finite depth can only derive infinite strings, which
        // makes the grammar unusable for sampling — reject it.
        let mut min_depth = vec![usize::MAX; nt_names.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for p in &productions {
                let mut cost = 1usize;
                let mut finite = true;
                for s in &p.rhs {
                    if let Sym::Nt(nt) = s {
                        if min_depth[*nt] == usize::MAX {
                            finite = false;
                            break;
                        }
                        cost = cost.max(1 + min_depth[*nt]);
                    }
                }
                if finite && cost < min_depth[p.lhs] {
                    min_depth[p.lhs] = cost;
                    changed = true;
                }
            }
        }
        if let Some(bad) = min_depth.iter().position(|&d| d == usize::MAX) {
            return Err(GrammarError {
                msg: format!(
                    "nonterminal {:?} cannot derive any finite string",
                    nt_names[bad]
                ),
            });
        }

        // Nullable nonterminals, by fixpoint: some production's RHS is all
        // nullable nonterminals (vacuously so for an epsilon production).
        let mut nullable = vec![false; nt_names.len()];
        let mut changed = true;
        while changed {
            changed = false;
            for p in &productions {
                if !nullable[p.lhs]
                    && p.rhs
                        .iter()
                        .all(|s| matches!(s, Sym::Nt(nt) if nullable[*nt]))
                {
                    nullable[p.lhs] = true;
                    changed = true;
                }
            }
        }

        Ok(Grammar {
            nt_names,
            productions,
            by_lhs,
            start,
            min_depth,
            nullable,
        })
    }

    /// Names of all nonterminals, in definition order.
    pub fn nonterminal_names(&self) -> &[String] {
        &self.nt_names
    }

    /// Name of nonterminal `i`.
    pub fn nt_name(&self, i: usize) -> &str {
        &self.nt_names[i]
    }

    /// All productions.
    pub fn productions(&self) -> &[Production] {
        &self.productions
    }

    /// Indices of productions with the given LHS.
    pub fn productions_of(&self, lhs: usize) -> &[usize] {
        &self.by_lhs[lhs]
    }

    /// Number of productions (the paper's "grammar rules" knob: 95–171).
    pub fn rule_count(&self) -> usize {
        self.productions.len()
    }

    /// Start nonterminal index.
    pub fn start(&self) -> usize {
        self.start
    }

    /// True when nonterminal `nt` can derive the empty string.
    pub(crate) fn is_nullable(&self, nt: usize) -> bool {
        self.nullable[nt]
    }

    /// The set of terminal characters used by the grammar, sorted — the
    /// model alphabet.
    pub fn alphabet(&self) -> Vec<char> {
        let mut set: std::collections::BTreeSet<char> = Default::default();
        for p in &self.productions {
            for s in &p.rhs {
                if let Sym::T(c) = s {
                    set.insert(*c);
                }
            }
        }
        set.into_iter().collect()
    }

    /// Samples one string and its ground-truth parse tree.
    ///
    /// Weighted choice among alternatives; beyond `max_depth` the sampler
    /// switches to the alternative with the fewest nonterminals to force
    /// termination (standard PCFG sampling practice).
    pub fn sample(&self, rng: &mut impl Rng, max_depth: usize) -> (String, ParseTree) {
        let mut text = String::new();
        let tree = self.sample_nt(self.start, rng, 0, max_depth, &mut text);
        (text, tree)
    }

    fn sample_nt(
        &self,
        nt: usize,
        rng: &mut impl Rng,
        depth: usize,
        max_depth: usize,
        out: &mut String,
    ) -> ParseTree {
        let choices = &self.by_lhs[nt];
        let prod_idx = if depth >= max_depth {
            // Termination mode: the alternative whose RHS nonterminals have
            // the smallest minimum derivation depth, guaranteeing progress
            // toward an all-terminal string.
            *choices
                .iter()
                .min_by_key(|&&p| {
                    self.productions[p]
                        .rhs
                        .iter()
                        .map(|s| match s {
                            Sym::Nt(child) => 1 + self.min_depth[*child],
                            Sym::T(_) => 0,
                        })
                        .max()
                        .unwrap_or(0)
                })
                .expect("nonterminal with no productions")
        } else {
            let total: f32 = choices.iter().map(|&p| self.productions[p].weight).sum();
            let mut pick = rng.gen_range(0.0..total.max(f32::MIN_POSITIVE));
            let mut chosen = choices[0];
            for &p in choices {
                pick -= self.productions[p].weight;
                chosen = p;
                if pick <= 0.0 {
                    break;
                }
            }
            chosen
        };

        let start = out.chars().count();
        let mut children = Vec::new();
        for sym in &self.productions[prod_idx].rhs {
            match sym {
                Sym::T(c) => out.push(*c),
                Sym::Nt(child) => {
                    children.push(self.sample_nt(*child, rng, depth + 1, max_depth, out));
                }
            }
        }
        let end = out.chars().count();
        ParseTree {
            rule: self.nt_names[nt].clone(),
            start,
            end,
            children,
        }
    }
}

fn is_identifier(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Debug)]
enum RawTok {
    Ident(String),
    Literal(String),
}

#[derive(Debug)]
struct RawAlt {
    weight: f32,
    tokens: Vec<RawTok>,
}

/// Splits an RHS on top-level `|` (quotes may contain `|`).
fn split_alternatives(rhs: &str) -> Vec<String> {
    let mut alts = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    let mut escaped = false;
    for c in rhs.chars() {
        if escaped {
            current.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quote => {
                current.push(c);
                escaped = true;
            }
            '\'' => {
                in_quote = !in_quote;
                current.push(c);
            }
            '|' if !in_quote => {
                alts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    alts.push(current);
    alts
}

fn parse_alternative(text: &str, rule_no: usize) -> Result<RawAlt, GrammarError> {
    let mut weight = 1.0f32;
    let mut rest = text.trim();
    if let Some(stripped) = rest.strip_prefix('{') {
        let Some((w, tail)) = stripped.split_once('}') else {
            return Err(GrammarError {
                msg: format!("rule {rule_no}: unterminated weight"),
            });
        };
        weight = w.trim().parse::<f32>().map_err(|e| GrammarError {
            msg: format!("rule {rule_no}: bad weight {w:?}: {e}"),
        })?;
        if weight <= 0.0 {
            return Err(GrammarError {
                msg: format!("rule {rule_no}: weight must be > 0"),
            });
        }
        rest = tail.trim();
    }

    let mut tokens = Vec::new();
    let mut chars = rest.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut lit = String::new();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => {
                        let Some(esc) = chars.next() else { break };
                        match esc {
                            'n' => lit.push('\n'),
                            't' => lit.push('\t'),
                            other => lit.push(other),
                        }
                    }
                    '\'' => {
                        closed = true;
                        break;
                    }
                    other => lit.push(other),
                }
            }
            if !closed {
                return Err(GrammarError {
                    msg: format!("rule {rule_no}: unterminated string literal"),
                });
            }
            tokens.push(RawTok::Literal(lit));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let mut ident = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_alphanumeric() || c == '_' {
                    ident.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            tokens.push(RawTok::Ident(ident));
        } else {
            return Err(GrammarError {
                msg: format!("rule {rule_no}: unexpected character {c:?} in RHS"),
            });
        }
    }
    Ok(RawAlt { weight, tokens })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_tensor::init::seeded_rng;

    const TOY: &str = r"
        # toy arithmetic grammar
        expr -> term | expr '+' term ;
        term -> digit | '(' expr ')' ;
        digit -> '1' | '2' | '3' ;
    ";

    #[test]
    fn parses_toy_grammar() {
        let g = Grammar::from_spec(TOY).unwrap();
        assert_eq!(g.nonterminal_names(), &["expr", "term", "digit"]);
        assert_eq!(g.rule_count(), 7);
        assert_eq!(g.start(), 0);
    }

    #[test]
    fn alphabet_collects_terminals() {
        let g = Grammar::from_spec(TOY).unwrap();
        assert_eq!(g.alphabet(), vec!['(', ')', '+', '1', '2', '3']);
    }

    #[test]
    fn multi_char_literal_explodes_to_chars() {
        let g = Grammar::from_spec("kw -> 'SELECT' ;").unwrap();
        let p = &g.productions()[0];
        assert_eq!(p.rhs.len(), 6);
        assert!(matches!(p.rhs[0], Sym::T('S')));
    }

    #[test]
    fn epsilon_production_allowed() {
        let g = Grammar::from_spec("opt -> | 'x' ;").unwrap();
        assert!(g.productions().iter().any(|p| p.rhs.is_empty()));
    }

    #[test]
    fn rejects_undefined_nonterminal() {
        let err = Grammar::from_spec("a -> b ;").unwrap_err();
        assert!(err.msg.contains("b"));
    }

    #[test]
    fn rejects_missing_arrow() {
        assert!(Grammar::from_spec("broken rule ;").is_err());
    }

    #[test]
    fn rejects_unterminated_literal() {
        assert!(Grammar::from_spec("a -> 'oops ;").is_err());
    }

    #[test]
    fn rejects_nonpositive_weight() {
        assert!(Grammar::from_spec("a -> {0.0} 'x' ;").is_err());
    }

    #[test]
    fn weights_parse_and_bias_sampling() {
        let g = Grammar::from_spec("s -> {9.0} 'a' | {1.0} 'b' ;").unwrap();
        let mut rng = seeded_rng(5);
        let mut a_count = 0;
        for _ in 0..500 {
            let (text, _) = g.sample(&mut rng, 10);
            if text == "a" {
                a_count += 1;
            }
        }
        assert!(a_count > 400, "weighted sampling skew: {a_count}/500");
    }

    #[test]
    fn sample_string_matches_tree_spans() {
        let g = Grammar::from_spec(TOY).unwrap();
        let mut rng = seeded_rng(1);
        for _ in 0..50 {
            let (text, tree) = g.sample(&mut rng, 8);
            assert_eq!(tree.start, 0);
            assert_eq!(tree.end, text.chars().count());
            // Every node's span must be within its parent's span.
            fn check(node: &crate::tree::ParseTree) {
                for child in &node.children {
                    assert!(child.start >= node.start && child.end <= node.end);
                    check(child);
                }
            }
            check(&tree);
        }
    }

    #[test]
    fn sampling_terminates_beyond_max_depth() {
        // Highly recursive grammar: without depth forcing this would loop.
        let g = Grammar::from_spec("s -> {100.0} '(' s ')' | 'x' ;").unwrap();
        let mut rng = seeded_rng(2);
        let (text, _) = g.sample(&mut rng, 5);
        assert!(text.len() < 40, "runaway sample: {text}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = Grammar::from_spec("# header\n\ns -> 'x' ; # trailing\n").unwrap();
        assert_eq!(g.rule_count(), 1);
    }

    #[test]
    fn escaped_quote_in_literal() {
        let g = Grammar::from_spec(r"s -> '\'' ;").unwrap();
        assert_eq!(g.alphabet(), vec!['\'']);
    }
}
