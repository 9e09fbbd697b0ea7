//! The nested-parentheses grammar of the paper's accuracy benchmark
//! (Appendix C): strings such as `0(1(2((44))))` where a digit naming the
//! current nesting level may precede each balanced parenthesis, up to 4
//! levels. The grammar is `r_i -> i r_i | ( r_{i+1} )` for `i < 4` and
//! `r4 -> ε | 4 r4`.

use crate::grammar::Grammar;

/// Maximum nesting level of the benchmark grammar.
pub(crate) const MAX_LEVEL: usize = 4;

/// Grammar spec for the parentheses language.
pub(crate) fn paren_grammar_spec() -> String {
    let mut spec = String::new();
    for i in 0..MAX_LEVEL {
        spec.push_str(&format!(
            "r{i} -> {{2.0}} '{i}' r{i} | '(' r{} ')' ;\n",
            i + 1
        ));
    }
    spec.push_str(&format!("r{MAX_LEVEL} -> | '{MAX_LEVEL}' r{MAX_LEVEL} ;\n"));
    spec
}

/// The parsed parentheses grammar (start symbol `r0`).
pub fn paren_grammar() -> Grammar {
    Grammar::from_spec(&paren_grammar_spec()).expect("builtin paren grammar must parse")
}

/// Hypothesis: 1 where the character is `(` or `)` — the "recognizes
/// parentheses symbols" hypothesis verified in Appendix C.
pub fn paren_symbol_behavior(text: &str) -> Vec<f32> {
    text.chars()
        .map(|c| if c == '(' || c == ')' { 1.0 } else { 0.0 })
        .collect()
}

/// Hypothesis: the current nesting level at each character. Opening parens
/// count at the deeper level they introduce; closing parens at the level
/// they close, mirroring the spans the grammar assigns.
pub fn nesting_level_behavior(text: &str) -> Vec<f32> {
    let mut out = Vec::with_capacity(text.len());
    let mut depth = 0i32;
    for c in text.chars() {
        match c {
            '(' => {
                depth += 1;
                out.push(depth as f32);
            }
            ')' => {
                out.push(depth as f32);
                depth -= 1;
            }
            _ => out.push(depth as f32),
        }
    }
    out
}

/// Hypothesis: 1 where the nesting level is exactly `MAX_LEVEL` (4) — the
/// deliberately ambiguous hypothesis of Appendix C (units may learn the
/// digit `4` rather than the level).
pub fn level_is_max_behavior(text: &str) -> Vec<f32> {
    nesting_level_behavior(text)
        .into_iter()
        .map(|d| if d as usize == MAX_LEVEL { 1.0 } else { 0.0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earley::EarleyParser;
    use deepbase_tensor::init::seeded_rng;

    #[test]
    fn grammar_has_five_levels() {
        let g = paren_grammar();
        for i in 0..=MAX_LEVEL {
            assert!(g.nonterminal_names().contains(&format!("r{i}")));
        }
    }

    #[test]
    fn sampled_strings_are_balanced() {
        let g = paren_grammar();
        let mut rng = seeded_rng(21);
        for _ in 0..100 {
            let (text, _) = g.sample(&mut rng, 12);
            let mut depth = 0i32;
            for c in text.chars() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        assert!(depth >= 0, "unbalanced: {text}");
                    }
                    d => assert!(d.is_ascii_digit(), "unexpected char in {text}"),
                }
            }
            assert_eq!(depth, 0, "unbalanced: {text}");
        }
    }

    #[test]
    fn digits_match_their_nesting_level() {
        let g = paren_grammar();
        let mut rng = seeded_rng(33);
        for _ in 0..50 {
            let (text, _) = g.sample(&mut rng, 12);
            let levels = nesting_level_behavior(&text);
            for (c, &level) in text.chars().zip(levels.iter()) {
                if let Some(d) = c.to_digit(10) {
                    assert_eq!(d as f32, level, "digit/level mismatch in {text}");
                }
            }
        }
    }

    #[test]
    fn sampled_strings_reparse() {
        let g = paren_grammar();
        let parser = EarleyParser::new(&g);
        let mut rng = seeded_rng(4);
        for _ in 0..30 {
            let (text, _) = g.sample(&mut rng, 10);
            assert!(parser.recognizes(&text), "must reparse {text}");
        }
    }

    #[test]
    fn example_string_from_paper_parses() {
        let parser_grammar = paren_grammar();
        let parser = EarleyParser::new(&parser_grammar);
        assert!(parser.recognizes("0(1(2((44))))"));
        assert!(!parser.recognizes("0(1("));
    }

    #[test]
    fn paren_symbol_behavior_marks_parens() {
        assert_eq!(paren_symbol_behavior("0(1)"), vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn nesting_level_of_paper_example() {
        let b = nesting_level_behavior("0(1(2((44))))");
        // 0 ( 1 ( 2 ( ( 4 4 ) ) ) )
        assert_eq!(
            b,
            vec![0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 4.0, 3.0, 2.0, 1.0]
        );
    }

    #[test]
    fn level_is_max_flags_only_level4() {
        let b = level_is_max_behavior("0(1(2((44))))");
        assert_eq!(
            b,
            vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        );
    }
}
