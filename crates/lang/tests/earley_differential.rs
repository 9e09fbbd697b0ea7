//! The contract of the link-based Earley chart: `EarleyParser::parse`
//! returns, node for node, the tree of the subtree-copying parser it
//! replaced. That parser lives on here, verbatim, as `reference_parse` —
//! test code only — and every property below compares whole `ParseTree`s,
//! so where a grammar is ambiguous the order in which items enter the
//! chart is the only thing deciding the answer, and it has to be the same.

use deepbase_lang::paren::paren_grammar;
use deepbase_lang::sql::{sql_grammar, SqlGrammarConfig};
use deepbase_lang::{EarleyParser, Grammar, ParseTree, Sym};
use deepbase_tensor::init::seeded_rng;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::Rng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// The reference chart's item: production, dot position, origin set, plus
/// the child trees accumulated so far.
#[derive(Debug, Clone)]
struct Item {
    prod: usize,
    dot: usize,
    origin: usize,
    children: Vec<ParseTree>,
}

fn reference_nullable(grammar: &Grammar) -> Vec<bool> {
    let n = grammar.nonterminal_names().len();
    let mut nullable = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for p in grammar.productions() {
            if nullable[p.lhs] {
                continue;
            }
            let all_nullable = p.rhs.iter().all(|s| match s {
                Sym::T(_) => false,
                Sym::Nt(nt) => nullable[*nt],
            });
            if all_nullable {
                nullable[p.lhs] = true;
                changed = true;
            }
        }
    }
    nullable
}

/// `EarleyParser::parse` as it stood before the chart kept links.
fn reference_parse(g: &Grammar, input: &str) -> Option<ParseTree> {
    let nullable = reference_nullable(g);
    let chars: Vec<char> = input.chars().collect();
    let n = chars.len();

    // chart[k] = items ending at position k.
    let mut chart: Vec<Vec<Item>> = vec![Vec::new(); n + 1];
    let mut seen: Vec<HashSet<(usize, usize, usize)>> = vec![HashSet::new(); n + 1];

    for &p in g.productions_of(g.start()) {
        push_item(
            &mut chart[0],
            &mut seen[0],
            Item {
                prod: p,
                dot: 0,
                origin: 0,
                children: Vec::new(),
            },
        );
    }

    for k in 0..=n {
        let mut i = 0;
        while i < chart[k].len() {
            let item = chart[k][i].clone();
            i += 1;
            let rhs = &g.productions()[item.prod].rhs;
            if item.dot < rhs.len() {
                match rhs[item.dot] {
                    Sym::Nt(nt) => {
                        // Predictor.
                        for &p in g.productions_of(nt) {
                            push_item(
                                &mut chart[k],
                                &mut seen[k],
                                Item {
                                    prod: p,
                                    dot: 0,
                                    origin: k,
                                    children: Vec::new(),
                                },
                            );
                        }
                        // Aycock–Horspool: advance over nullable NTs
                        // immediately, attaching an empty subtree.
                        if nullable[nt] {
                            let mut advanced = item.clone();
                            advanced.dot += 1;
                            advanced.children.push(ParseTree {
                                rule: g.nt_name(nt).to_string(),
                                start: k,
                                end: k,
                                children: Vec::new(),
                            });
                            push_item(&mut chart[k], &mut seen[k], advanced);
                        }
                    }
                    Sym::T(c) => {
                        // Scanner.
                        if k < n && chars[k] == c {
                            let mut advanced = item.clone();
                            advanced.dot += 1;
                            push_item(&mut chart[k + 1], &mut seen[k + 1], advanced);
                        }
                    }
                }
            } else {
                // Completer: item.prod's LHS spans item.origin..k.
                let lhs = g.productions()[item.prod].lhs;
                let completed = ParseTree {
                    rule: g.nt_name(lhs).to_string(),
                    start: item.origin,
                    end: k,
                    children: item.children.clone(),
                };
                // Advance every parent in chart[origin] waiting on lhs.
                let parents: Vec<Item> = chart[item.origin]
                    .iter()
                    .filter(|parent| {
                        let prhs = &g.productions()[parent.prod].rhs;
                        parent.dot < prhs.len() && prhs[parent.dot] == Sym::Nt(lhs)
                    })
                    .cloned()
                    .collect();
                for mut parent in parents {
                    parent.dot += 1;
                    parent.children.push(completed.clone());
                    push_item(&mut chart[k], &mut seen[k], parent);
                }
            }
        }
    }

    // Accept: a completed start production spanning the whole input.
    chart[n]
        .iter()
        .find(|item| {
            let p = &g.productions()[item.prod];
            p.lhs == g.start() && item.dot == p.rhs.len() && item.origin == 0
        })
        .map(|item| ParseTree {
            rule: g.nt_name(g.start()).to_string(),
            start: 0,
            end: n,
            children: item.children.clone(),
        })
}

fn push_item(set: &mut Vec<Item>, seen: &mut HashSet<(usize, usize, usize)>, item: Item) {
    // First derivation wins: duplicates (same production/dot/origin) are
    // dropped, which keeps the parser deterministic and linear in practice.
    if seen.insert((item.prod, item.dot, item.origin)) {
        set.push(item);
    }
}

const ARITH: &str = "expr -> term | expr '+' term ; \
                     term -> digit | '(' expr ')' ; \
                     digit -> '1' | '2' | '3' ;";

/// Grammars whose trees only first-derivation order decides, or whose
/// nullable completions race the Aycock–Horspool advance.
const ADVERSARIAL: &[&str] = &[
    // Ambiguous, nullable, left- and right-recursive at once.
    "s -> s s | 'x' | ;",
    // A nullable nonterminal with a non-empty derivation of the empty
    // string: `b` completes as `b(a a)` or is skipped as an empty `b`.
    "s -> a b ; a -> | 'x' ; b -> a a ;",
    "s -> b b 'x' b ; b -> a a | 'y' ; a -> | 'x' ;",
    // Ambiguous binary operator.
    "e -> e '+' e | 'x' ;",
    // Right recursion; the same with a nullable tail.
    "s -> 'x' s | 'x' ;",
    "s -> 'x' s | ;",
    // Two spellings of one string, unit cycles, hidden left recursion.
    "s -> a | b ; a -> 'x' 'y' ; b -> 'x' c ; c -> 'y' ;",
    "s -> t | 'x' ; t -> s | 'y' ;",
    "s -> n s 'x' | 'y' ; n -> | 'z' ;",
    // Optional parts around a required one.
    "s -> opt 'x' opt ; opt -> | 'o' | opt 'o' ;",
];

/// The strings one sampled string stands for: itself, every truncation of
/// a short string (both halves of a long one), one character replaced,
/// inserted and deleted at a seeded position, and the empty string.
fn variants(text: &str, alphabet: &[char], rng: &mut impl Rng) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = vec![text.to_string(), String::new()];
    let cuts: Vec<usize> = if chars.len() <= 12 {
        (1..chars.len()).collect()
    } else {
        vec![chars.len() / 2, chars.len() - 1]
    };
    for cut in cuts {
        out.push(chars[..cut].iter().collect());
        out.push(chars[cut..].iter().collect());
    }
    if !chars.is_empty() && !alphabet.is_empty() {
        let at = rng.gen_range(0..chars.len());
        let with = alphabet[rng.gen_range(0..alphabet.len())];
        let mut replaced = chars.clone();
        replaced[at] = with;
        out.push(replaced.iter().collect());
        let mut inserted = chars.clone();
        inserted.insert(at, with);
        out.push(inserted.iter().collect());
        let mut deleted = chars;
        deleted.remove(at);
        out.push(deleted.iter().collect());
    }
    out
}

fn assert_same_trees(g: &Grammar, inputs: &[String]) -> Result<(), TestCaseError> {
    let parser = EarleyParser::new(g);
    for input in inputs {
        let expected = reference_parse(g, input);
        prop_assert_eq!(
            parser.recognizes(input),
            expected.is_some(),
            "recognizes({:?})",
            input
        );
        prop_assert_eq!(parser.parse(input), expected, "parse({:?})", input);
    }
    Ok(())
}

/// A sampled string of `g` and its variants, against the reference.
fn check_sampled(g: &Grammar, seed: u64, max_depth: usize) -> Result<(), TestCaseError> {
    let mut rng = seeded_rng(seed);
    let (text, _) = g.sample(&mut rng, max_depth);
    let inputs = variants(&text, &g.alphabet(), &mut rng);
    assert_same_trees(g, &inputs)
}

/// A seeded grammar over nonterminals `s a b c` and terminals `x y`:
/// two to four alternatives per nonterminal, zero to three symbols each
/// (zero is an ε-production), symbols drawn uniformly — so left, right and
/// hidden recursion, unit cycles, nullable chains and ambiguity all occur
/// (a quarter of the nonterminals also get `x -> x x`).
/// Each nonterminal ends with a terminals-only alternative, which is what
/// `Grammar::from_spec` needs to accept it.
fn random_grammar(rng: &mut impl Rng) -> Grammar {
    const NTS: [&str; 4] = ["s", "a", "b", "c"];
    const TS: [&str; 2] = ["'x'", "'y'"];
    let n_nts = rng.gen_range(1..=NTS.len());
    let mut spec = String::new();
    for nt in &NTS[..n_nts] {
        let mut alts: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|_| {
                (0..rng.gen_range(0..4usize))
                    .map(|_| {
                        if rng.gen_range(0..5usize) < 3 {
                            NTS[rng.gen_range(0..n_nts)]
                        } else {
                            TS[rng.gen_range(0..TS.len())]
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        // `x -> x x` is ambiguous as soon as `x` derives anything.
        if rng.gen_range(0..4usize) == 0 {
            alts.push(format!("{nt} {nt}"));
        }
        alts.push(
            (0..rng.gen_range(0..3usize))
                .map(|_| TS[rng.gen_range(0..TS.len())])
                .collect::<Vec<_>>()
                .join(" "),
        );
        // The terminating alternative is not always the last one tried.
        let at = rng.gen_range(0..alts.len());
        let last = alts.len() - 1;
        alts.swap(at, last);
        spec.push_str(&format!("{nt} -> {} ;\n", alts.join(" | ")));
    }
    Grammar::from_spec(&spec).unwrap_or_else(|e| panic!("{e}: {spec}"))
}

/// Every string over `alphabet` up to `max_len` characters.
fn all_strings(alphabet: &[char], max_len: usize) -> Vec<String> {
    let mut out = vec![String::new()];
    let mut from = 0;
    for _ in 0..max_len {
        let until = out.len();
        for i in from..until {
            for &c in alphabet {
                let mut longer = out[i].clone();
                longer.push(c);
                out.push(longer);
            }
        }
        from = until;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_grammars_match_reference(seed in 0u64..1_000_000) {
        let mut rng = seeded_rng(seed);
        let g = random_grammar(&mut rng);
        let alphabet = ['x', 'y'];
        let (text, _) = g.sample(&mut rng, 4);
        let mut inputs = variants(&text, &alphabet, &mut rng);
        for _ in 0..8 {
            let len = rng.gen_range(0..9usize);
            inputs.push((0..len).map(|_| alphabet[rng.gen_range(0..2usize)]).collect());
        }
        assert_same_trees(&g, &inputs)?;
    }
}

proptest! {
    #[test]
    fn sql_small_matches_reference(seed in 0u64..100_000) {
        check_sampled(&sql_grammar(&SqlGrammarConfig::small()), seed, 14)?;
    }

    #[test]
    fn sql_medium_matches_reference(seed in 0u64..100_000) {
        check_sampled(&sql_grammar(&SqlGrammarConfig::medium()), seed, 14)?;
    }

    #[test]
    fn paren_and_arith_match_reference(seed in 0u64..100_000) {
        check_sampled(&paren_grammar(), seed, 10)?;
        check_sampled(&Grammar::from_spec(ARITH).unwrap(), seed, 8)?;
    }

}

#[test]
fn adversarial_grammars_match_reference_on_every_short_string() {
    for spec in ADVERSARIAL {
        let g = Grammar::from_spec(spec).unwrap();
        let inputs = all_strings(&g.alphabet(), 6);
        assert_same_trees(&g, &inputs).unwrap_or_else(|e| panic!("{spec}: {e:?}"));
    }
}

#[test]
fn seeded_random_grammars_cover_the_hard_shapes() {
    // The random-grammar property is only as strong as what it draws:
    // over the seeds it can see there must be grammars with ε-productions,
    // direct left recursion, direct right recursion and ambiguity.
    let (mut epsilon, mut left, mut right, mut ambiguous) = (0, 0, 0, 0);
    for seed in 0..200 {
        let g = random_grammar(&mut seeded_rng(seed));
        let prods = g.productions();
        epsilon += usize::from(prods.iter().any(|p| p.rhs.is_empty()));
        left += usize::from(prods.iter().any(|p| p.rhs.first() == Some(&Sym::Nt(p.lhs))));
        right += usize::from(
            prods
                .iter()
                .any(|p| p.rhs.len() > 1 && p.rhs.last() == Some(&Sym::Nt(p.lhs))),
        );
        // Ambiguity, by a sufficient condition: `x -> x x` on a nonterminal
        // the start symbol reaches (every nonterminal here derives some
        // string, and any string `x` derives then has a second tree).
        let mut reached = vec![g.start()];
        let mut next = 0;
        while next < reached.len() {
            for &p in g.productions_of(reached[next]) {
                for sym in &prods[p].rhs {
                    match sym {
                        Sym::Nt(nt) if !reached.contains(nt) => reached.push(*nt),
                        _ => {}
                    }
                }
            }
            next += 1;
        }
        ambiguous += usize::from(
            prods
                .iter()
                .any(|p| reached.contains(&p.lhs) && p.rhs == [Sym::Nt(p.lhs), Sym::Nt(p.lhs)]),
        );
    }
    assert!(epsilon >= 20, "ε-productions in {epsilon} of 200 grammars");
    assert!(left >= 20, "left recursion in {left} of 200 grammars");
    assert!(right >= 20, "right recursion in {right} of 200 grammars");
    assert!(ambiguous >= 20, "ambiguity in {ambiguous} of 200 grammars");
}

#[test]
fn long_left_recursive_chain_parses_in_linear_time() {
    // 2,001 digits joined by '+': 4,001 characters, one `expr` and one
    // `term` and one `digit` per operand — 6,003 nodes nested 2,001 deep.
    // The subtree-copying chart was quadratic here (131.6 ms at 801
    // characters in a release build, ≈ 3.3 s at this length, far more
    // unoptimised); the bound is generous for a debug build of a linear
    // parser and out of reach for a quadratic one.
    let g = Grammar::from_spec(ARITH).unwrap();
    let input = vec!["1"; 2001].join("+");
    assert_eq!(input.len(), 4001);
    let parser = EarleyParser::new(&g);
    let started = Instant::now();
    let tree = parser.parse(&input).expect("the chain is in the language");
    let elapsed = started.elapsed();
    assert_eq!(tree.node_count(), 6003);
    assert_eq!(tree.depth(), 2003);
    assert_eq!((tree.start, tree.end), (0, 4001));
    assert!(parser.recognizes(&input));
    assert!(
        elapsed < Duration::from_secs(2),
        "4,001-character chain took {elapsed:?}"
    );
}
