//! The paper's evaluation workloads, packaged for reuse by examples,
//! integration tests and the benchmark harnesses.
//!
//! * [`sql`] — the §6.1 scalability workload: PCFG-sampled SQL queries,
//!   stride windows, parse-derived hypotheses, and a trainable
//!   auto-completion model.
//! * [`paren`] — the Appendix C accuracy workload: the nested-parentheses
//!   grammar, ground-truth hypotheses, and specialization training.
//! * [`nmt`] — the §6.3 translation workload: synthetic EN→DE corpus,
//!   seq2seq model, and per-POS-tag hypotheses.

use crate::model::{Dataset, FnHypothesis, ParseCache, ParseHypothesis, Record};
use std::sync::Arc;

/// The SQL auto-completion workload (paper §2.1, §6.1–6.2).
pub mod sql {
    use super::*;
    use deepbase_lang::sql::{sql_grammar, SqlGrammarConfig};
    use deepbase_lang::vocab::{sliding_windows, Vocab};
    use deepbase_lang::{Grammar, TreeRepr};
    use deepbase_nn::{train_epoch_last, CharLstmModel, OutputMode};

    /// Workload knobs; defaults scale the paper's setup down to what runs
    /// in seconds (the harnesses accept `--paper` for full scale).
    #[derive(Debug, Clone)]
    pub struct SqlWorkloadConfig {
        /// Grammar preset.
        pub grammar: SqlGrammarConfig,
        /// Number of sampled queries.
        pub n_queries: usize,
        /// Window length `ns` (paper default: 30).
        pub ns: usize,
        /// Window stride (paper default: 5).
        pub stride: usize,
        /// Cap on total records (the paper's default setup: 29,696).
        pub max_records: usize,
        /// Hypothesis representations (paper: time + signal → 190 hyps).
        pub reprs: Vec<TreeRepr>,
        /// RNG seed.
        pub seed: u64,
        /// Pre-populate the parse cache with the sampler's ground-truth
        /// derivations (fast path). Set to `false` to force hypothesis
        /// evaluation through the Earley parser, reproducing the paper's
        /// "slow parsing library dominates extraction" regime (Fig. 9).
        pub prepopulate_parse_cache: bool,
    }

    impl Default for SqlWorkloadConfig {
        fn default() -> Self {
            SqlWorkloadConfig {
                grammar: SqlGrammarConfig::medium(),
                n_queries: 64,
                ns: 30,
                stride: 5,
                max_records: 2048,
                reprs: vec![TreeRepr::Time, TreeRepr::Signal],
                seed: 7,
                prepopulate_parse_cache: true,
            }
        }
    }

    /// Everything the SQL experiments need.
    pub struct SqlWorkload {
        /// The grammar the queries were sampled from.
        pub grammar: Arc<Grammar>,
        /// Character vocabulary (model input alphabet).
        pub vocab: Vocab,
        /// The inspection dataset (windows).
        pub dataset: Dataset,
        /// Training windows (same records, as id sequences).
        pub train_inputs: Vec<Vec<u32>>,
        /// Next-char targets per training window.
        pub train_targets: Vec<u32>,
        /// Shared parse cache, pre-populated with ground-truth trees.
        pub parse_cache: Arc<ParseCache>,
        /// The parse-derived hypothesis library.
        pub hypotheses: Vec<ParseHypothesis>,
    }

    /// Builds the workload: samples queries, cuts windows, generates the
    /// hypothesis library (2 per nonterminal as in §6.2).
    pub fn build(config: &SqlWorkloadConfig) -> SqlWorkload {
        let grammar = Arc::new(sql_grammar(&config.grammar));
        let vocab = Vocab::from_alphabet(&grammar.alphabet());
        let mut rng = deepbase_tensor::init::seeded_rng(config.seed);
        let parse_cache = ParseCache::new();

        let mut records = Vec::new();
        let mut train_inputs = Vec::new();
        let mut train_targets = Vec::new();
        'outer: for q in 0..config.n_queries {
            let (query, tree) = grammar.sample(&mut rng, 14);
            if config.prepopulate_parse_cache {
                parse_cache.insert(q, tree);
            }
            let source = Arc::new(query.clone());
            for w in sliding_windows(&query, config.ns, config.stride) {
                let symbols = vocab.encode(&w.text);
                if let Some(target) = w.target {
                    train_inputs.push(symbols.clone());
                    train_targets.push(vocab.id(target));
                }
                records.push(Record {
                    id: records.len(),
                    symbols,
                    text: w.text.clone(),
                    source_id: q,
                    source_text: Arc::clone(&source),
                    offset: w.offset,
                    visible: w.visible,
                });
                if records.len() >= config.max_records {
                    break 'outer;
                }
            }
        }
        let dataset = Dataset::new(&format!("sql-{}", config.seed), config.ns, records)
            .expect("windows have length ns");
        let hypotheses = ParseHypothesis::library(&grammar, &config.reprs, &parse_cache);

        SqlWorkload {
            grammar,
            vocab,
            dataset,
            train_inputs,
            train_targets,
            parse_cache,
            hypotheses,
        }
    }

    /// Trains the auto-completion model, returning per-epoch snapshots
    /// (epoch 0 = untrained, as Fig. 14 inspects training progress).
    pub fn train_model(
        workload: &SqlWorkload,
        hidden: usize,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Vec<CharLstmModel> {
        let mut model =
            CharLstmModel::new(workload.vocab.size(), hidden, OutputMode::LastStep, seed);
        let mut snapshots = vec![model.clone()];
        for epoch in 0..epochs {
            train_epoch_last(
                &mut model,
                &workload.train_inputs,
                &workload.train_targets,
                64,
                lr,
                seed.wrapping_add(epoch as u64),
            );
            snapshots.push(model.clone());
        }
        snapshots
    }

    /// Keyword hypotheses for the low-level analyses (Fig. 1, §2.2).
    pub fn keyword_hypotheses() -> Vec<FnHypothesis> {
        deepbase_lang::sql::SQL_KEYWORDS
            .iter()
            .map(|kw| FnHypothesis::keyword(kw))
            .collect()
    }
}

/// The nested-parentheses workload (paper Appendix C).
pub mod paren {
    use super::*;
    use deepbase_lang::paren::{
        level_is_max_behavior, nesting_level_behavior, paren_grammar, paren_symbol_behavior,
    };
    use deepbase_lang::vocab::Vocab;
    use deepbase_nn::{CharLstmModel, OutputMode, Specialization};

    /// Workload knobs.
    #[derive(Debug, Clone)]
    pub struct ParenWorkloadConfig {
        /// Number of strings sampled.
        pub n_strings: usize,
        /// Fixed record length (strings padded/truncated).
        pub ns: usize,
        /// RNG seed.
        pub seed: u64,
    }

    impl Default for ParenWorkloadConfig {
        fn default() -> Self {
            ParenWorkloadConfig {
                n_strings: 96,
                ns: 24,
                seed: 11,
            }
        }
    }

    /// Dataset, vocabulary and training sequences for the paren language.
    pub struct ParenWorkload {
        /// Character vocabulary.
        pub vocab: Vocab,
        /// The inspection dataset.
        pub dataset: Dataset,
        /// Per-record input ids (same as dataset records).
        pub train_inputs: Vec<Vec<u32>>,
        /// Next-char targets at every position (char LM).
        pub train_targets: Vec<Vec<u32>>,
    }

    /// Builds the workload by sampling the paren grammar.
    pub fn build(config: &ParenWorkloadConfig) -> ParenWorkload {
        let grammar = paren_grammar();
        let vocab = Vocab::from_alphabet(&grammar.alphabet());
        let mut rng = deepbase_tensor::init::seeded_rng(config.seed);
        let mut records = Vec::new();
        let mut train_inputs = Vec::new();
        let mut train_targets = Vec::new();
        while records.len() < config.n_strings {
            let (mut text, _) = grammar.sample(&mut rng, 10);
            if text.is_empty() {
                continue;
            }
            // Fix the record length: truncate or right-pad.
            text.truncate(config.ns);
            let visible = text.chars().count();
            let mut padded = text.clone();
            for _ in visible..config.ns {
                padded.push(deepbase_lang::PAD);
            }
            let symbols = vocab.encode(&padded);
            // Next-char targets (shifted by one; last predicts pad).
            let mut targets: Vec<u32> = symbols[1..].to_vec();
            targets.push(vocab.pad_id());
            train_inputs.push(symbols.clone());
            train_targets.push(targets);
            records.push(Record {
                id: records.len(),
                symbols,
                text: padded.clone(),
                source_id: records.len(),
                source_text: Arc::new(padded),
                offset: 0,
                visible: config.ns,
            });
        }
        let dataset = Dataset::new(&format!("paren-{}", config.seed), config.ns, records)
            .expect("fixed-length records");
        ParenWorkload {
            vocab,
            dataset,
            train_inputs,
            train_targets,
        }
    }

    /// The three Appendix C hypotheses.
    pub fn hypotheses() -> Vec<FnHypothesis> {
        vec![
            FnHypothesis::new("paren_symbols", |r| paren_symbol_behavior(&r.text)),
            FnHypothesis::new("nesting_level", |r| nesting_level_behavior(&r.text)),
            FnHypothesis::new("level_is_4", |r| level_is_max_behavior(&r.text)),
        ]
    }

    /// Trains the Appendix C model: 16 units, next-char prediction at every
    /// step, with `n_specialized` units forced toward the paren-symbol
    /// hypothesis at mixing weight `w` (`gM = w*gh + (1-w)*gT`).
    pub fn train_specialized(
        workload: &ParenWorkload,
        hidden: usize,
        n_specialized: usize,
        weight: f32,
        epochs: usize,
        seed: u64,
    ) -> CharLstmModel {
        let mut model =
            CharLstmModel::new(workload.vocab.size(), hidden, OutputMode::EveryStep, seed);
        let aux: Vec<Vec<f32>> = workload
            .dataset
            .records
            .iter()
            .map(|r| paren_symbol_behavior(&r.text))
            .collect();
        let spec = Specialization {
            units: (0..n_specialized).collect(),
            weight,
        };
        let batch = 16usize;
        for _ in 0..epochs {
            let mut start = 0;
            while start < workload.train_inputs.len() {
                let end = (start + batch).min(workload.train_inputs.len());
                let inputs = &workload.train_inputs[start..end];
                let targets = &workload.train_targets[start..end];
                let aux_block = &aux[start..end];
                if n_specialized > 0 && weight > 0.0 {
                    model.train_batch_every(inputs, targets, Some((&spec, aux_block)), 0.02);
                } else {
                    model.train_batch_every(inputs, targets, None, 0.02);
                }
                start = end;
            }
        }
        model
    }
}

/// The neural-machine-translation workload (paper §6.3).
pub mod nmt {
    use super::*;
    use deepbase_lang::corpus::{generate_corpus, ParallelCorpus, WordVocab, EOS_ID};
    use deepbase_nn::Seq2Seq;

    /// Workload knobs.
    #[derive(Debug, Clone)]
    pub struct NmtWorkloadConfig {
        /// Number of sentence pairs (paper: 4,823 train / 636 val / 544
        /// test; defaults scale down).
        pub n_sentences: usize,
        /// RNG seed.
        pub seed: u64,
    }

    impl Default for NmtWorkloadConfig {
        fn default() -> Self {
            NmtWorkloadConfig {
                n_sentences: 256,
                seed: 21,
            }
        }
    }

    /// Corpus, vocabularies, datasets and tag annotations.
    pub struct NmtWorkload {
        /// The parallel corpus with ground-truth source POS tags.
        pub corpus: ParallelCorpus,
        /// Source-side vocabulary.
        pub src_vocab: WordVocab,
        /// Target-side vocabulary.
        pub tgt_vocab: WordVocab,
        /// Inspection dataset: one record per source sentence,
        /// right-padded to the longest sentence.
        pub dataset: Dataset,
        /// Training pairs (source ids, target ids + EOS).
        pub train_pairs: Vec<(Vec<u32>, Vec<u32>)>,
        /// Tag of each record symbol (padding positions hold `None`).
        pub record_tags: Arc<Vec<Vec<Option<String>>>>,
    }

    /// Builds the workload from the synthetic corpus.
    pub fn build(config: &NmtWorkloadConfig) -> NmtWorkload {
        let corpus = generate_corpus(config.n_sentences, config.seed);
        let src_vocab = WordVocab::build(
            corpus
                .pairs
                .iter()
                .flat_map(|p| p.source.iter().map(|s| s.as_str())),
        );
        let tgt_vocab = WordVocab::build(
            corpus
                .pairs
                .iter()
                .flat_map(|p| p.target.iter().map(|s| s.as_str())),
        );
        let ns = corpus
            .pairs
            .iter()
            .map(|p| p.source.len())
            .max()
            .unwrap_or(1);

        let mut records = Vec::new();
        let mut train_pairs = Vec::new();
        let mut record_tags = Vec::new();
        for (i, pair) in corpus.pairs.iter().enumerate() {
            let mut symbols = src_vocab.encode(&pair.source);
            let visible = symbols.len();
            symbols.resize(ns, 0); // pad id
            let mut tgt = tgt_vocab.encode(&pair.target);
            tgt.push(EOS_ID);
            train_pairs.push((symbols[..visible].to_vec(), tgt));

            let mut tags: Vec<Option<String>> =
                pair.source_tags.iter().map(|t| Some(t.clone())).collect();
            tags.resize(ns, None);
            record_tags.push(tags);

            let text = pair.source.join(" ");
            records.push(Record {
                id: i,
                symbols,
                text: text.clone(),
                source_id: i,
                source_text: Arc::new(text),
                offset: 0,
                visible,
            });
        }
        let dataset =
            Dataset::new(&format!("nmt-{}", config.seed), ns, records).expect("padded records");
        NmtWorkload {
            corpus,
            src_vocab,
            tgt_vocab,
            dataset,
            train_pairs,
            record_tags: Arc::new(record_tags),
        }
    }

    /// Trains the seq2seq model for `epochs` passes over the pairs.
    pub fn train_model(
        workload: &NmtWorkload,
        emb_dim: usize,
        hidden: usize,
        epochs: usize,
        lr: f32,
        seed: u64,
    ) -> Seq2Seq {
        let mut model = Seq2Seq::new(
            workload.src_vocab.size(),
            workload.tgt_vocab.size(),
            emb_dim,
            hidden,
            seed,
        );
        for _ in 0..epochs {
            for (src, tgt) in &workload.train_pairs {
                model.train_pair(src, tgt, lr);
            }
        }
        model
    }

    /// One binary hypothesis per POS tag: emits 1 at symbols whose
    /// ground-truth tag equals `tag` (the CoreNLP-annotation path of
    /// §6.3.1, with annotations from the corpus generator).
    pub fn tag_hypotheses(workload: &NmtWorkload, tags: &[&str]) -> Vec<FnHypothesis> {
        tags.iter()
            .map(|&tag| {
                let tags_table = Arc::clone(&workload.record_tags);
                let tag_owned = tag.to_string();
                FnHypothesis::new(&format!("pos:{tag}"), move |rec| {
                    match tags_table.get(rec.source_id) {
                        Some(row) => row
                            .iter()
                            .map(|t| match t {
                                Some(t) if *t == tag_owned => 1.0,
                                _ => 0.0,
                            })
                            .collect(),
                        None => vec![0.0; rec.symbols.len()],
                    }
                })
            })
            .collect()
    }

    /// Phrase-level hypotheses (§6.3.2 adds NP/VP/PP-style structures): a
    /// noun phrase here is a determiner followed by adjectives and a noun;
    /// a verb phrase is a verb plus its object NP; a prepositional phrase
    /// is a preposition plus its NP.
    pub fn phrase_hypotheses(workload: &NmtWorkload) -> Vec<FnHypothesis> {
        let kinds = ["NP", "VP", "PP"];
        kinds
            .iter()
            .map(|&kind| {
                let tags_table = Arc::clone(&workload.record_tags);
                let kind_owned = kind.to_string();
                FnHypothesis::new(&format!("phrase:{kind}"), move |rec| {
                    let ns = rec.symbols.len();
                    let mut out = vec![0.0f32; ns];
                    let Some(row) = tags_table.get(rec.source_id) else {
                        return out;
                    };
                    let tag_at = |i: usize| row.get(i).and_then(|t| t.as_deref());
                    let mut i = 0;
                    while i < ns {
                        match (&kind_owned[..], tag_at(i)) {
                            ("NP", Some("DT")) => {
                                let mut j = i + 1;
                                while matches!(tag_at(j), Some("JJ") | Some("JJR") | Some("JJS")) {
                                    j += 1;
                                }
                                if matches!(tag_at(j), Some("NN") | Some("NNS") | Some("NNP")) {
                                    for v in out.iter_mut().take(j + 1).skip(i) {
                                        *v = 1.0;
                                    }
                                    i = j + 1;
                                    continue;
                                }
                            }
                            ("VP", Some("VBZ") | Some("VBD") | Some("VBP")) => {
                                let mut j = i + 1;
                                // Verb plus a following NP if present.
                                if matches!(tag_at(j), Some("DT")) {
                                    while matches!(
                                        tag_at(j + 1),
                                        Some("JJ") | Some("JJR") | Some("JJS")
                                    ) {
                                        j += 1;
                                    }
                                    if matches!(
                                        tag_at(j + 1),
                                        Some("NN") | Some("NNS") | Some("NNP")
                                    ) {
                                        j += 1;
                                    }
                                }
                                for v in out.iter_mut().take(j + 1).skip(i) {
                                    *v = 1.0;
                                }
                                i = j + 1;
                                continue;
                            }
                            ("PP", Some("IN")) => {
                                let mut j = i + 1;
                                if matches!(tag_at(j), Some("DT")) {
                                    while matches!(tag_at(j + 1), Some("JJ")) {
                                        j += 1;
                                    }
                                    if matches!(tag_at(j + 1), Some("NN") | Some("NNS")) {
                                        j += 1;
                                    }
                                }
                                for v in out.iter_mut().take(j + 1).skip(i) {
                                    *v = 1.0;
                                }
                                i = j + 1;
                                continue;
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    out
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HypothesisFn;

    #[test]
    fn sql_workload_builds_consistently() {
        let config = sql::SqlWorkloadConfig {
            n_queries: 8,
            max_records: 64,
            ..Default::default()
        };
        let w = sql::build(&config);
        assert!(w.dataset.len() <= 64);
        assert!(!w.dataset.is_empty());
        assert_eq!(w.dataset.ns, 30);
        assert_eq!(w.train_inputs.len(), w.train_targets.len());
        // Two representations per nonterminal.
        assert_eq!(w.hypotheses.len(), 2 * w.grammar.nonterminal_names().len());
        // Ground-truth trees pre-populate the cache: evaluating any
        // hypothesis must not invoke the parser.
        let rec = &w.dataset.records[0];
        let _ = w.hypotheses[0].behavior(rec).unwrap();
        assert_eq!(w.parse_cache.miss_count(), 0);
    }

    /// Folds a pre-order walk (rule name, span, child count) into `hash`.
    fn fold_tree(hash: &mut deepbase_store::FpHasher, tree: &deepbase_lang::ParseTree) {
        hash.write_str(&tree.rule)
            .write_u64(tree.start as u64)
            .write_u64(tree.end as u64)
            .write_u64(tree.children.len() as u64);
        for child in &tree.children {
            fold_tree(hash, child);
        }
    }

    #[test]
    fn the_benchmark_fixture_parses_to_the_golden_trees() {
        // The 60 sources `warm_sql_hyp` re-parses on every op. The
        // benchmark checks answers against a reference computed by the
        // same binary, so a parser that changed its trees would agree
        // with itself there; this hash was taken from the subtree-copying
        // parser and compares across binaries.
        let w = sql::build(&sql::SqlWorkloadConfig {
            n_queries: 128,
            max_records: 768,
            prepopulate_parse_cache: false,
            ..Default::default()
        });
        let mut sources: Vec<&Arc<String>> = Vec::new();
        for rec in &w.dataset.records {
            if rec.source_id == sources.len() {
                sources.push(&rec.source_text);
            }
        }
        assert_eq!(sources.len(), 60);
        let parser = deepbase_lang::EarleyParser::new(&w.grammar);
        let (mut hash, mut nodes) = (deepbase_store::FpHasher::new(), 0);
        for source in sources {
            let tree = parser.parse(source).expect("sampled from the grammar");
            nodes += tree.node_count();
            fold_tree(&mut hash, &tree);
        }
        assert_eq!(nodes, 1541);
        assert_eq!(
            hash.finish(),
            0x9d19_7bfb_7672_9db6,
            "golden fingerprint of the 60 fixture trees"
        );
    }

    #[test]
    fn sql_hypotheses_have_record_length() {
        let w = sql::build(&sql::SqlWorkloadConfig {
            n_queries: 4,
            max_records: 16,
            ..Default::default()
        });
        for h in w.hypotheses.iter().take(10) {
            for rec in &w.dataset.records {
                assert_eq!(h.behavior(rec).unwrap().len(), w.dataset.ns);
            }
        }
    }

    #[test]
    fn sql_model_training_improves_accuracy() {
        let w = sql::build(&sql::SqlWorkloadConfig {
            n_queries: 24,
            max_records: 256,
            ..Default::default()
        });
        let snapshots = sql::train_model(&w, 24, 3, 0.02, 1);
        assert_eq!(snapshots.len(), 4);
        let before = snapshots[0].accuracy(&w.train_inputs, &w.train_targets);
        let after = snapshots[3].accuracy(&w.train_inputs, &w.train_targets);
        assert!(after > before, "accuracy {before} -> {after}");
        assert!(after > 0.25, "trained accuracy {after}");
    }

    #[test]
    fn paren_workload_and_hypotheses() {
        let w = paren::build(&paren::ParenWorkloadConfig::default());
        assert_eq!(w.dataset.len(), 96);
        for h in paren::hypotheses() {
            let b = h.behavior(&w.dataset.records[0]).unwrap();
            assert_eq!(b.len(), w.dataset.ns);
        }
    }

    #[test]
    fn paren_specialization_tracks_hypothesis() {
        let w = paren::build(&paren::ParenWorkloadConfig {
            n_strings: 48,
            ns: 16,
            seed: 2,
        });
        let model = paren::train_specialized(&w, 16, 4, 0.7, 12, 3);
        // Unit 0 (specialized) must correlate with paren symbols much more
        // than unit 15 (free).
        let acts = model.extract_activations(&w.train_inputs);
        let behavior: Vec<f32> = w
            .dataset
            .records
            .iter()
            .flat_map(|r| deepbase_lang::paren::paren_symbol_behavior(&r.text))
            .collect();
        let spec_r = deepbase_stats::pearson(&acts.col(0), &behavior).abs();
        assert!(spec_r > 0.5, "specialized unit correlation {spec_r}");
    }

    #[test]
    fn nmt_workload_builds_aligned_tags() {
        let w = nmt::build(&nmt::NmtWorkloadConfig {
            n_sentences: 32,
            seed: 5,
        });
        assert_eq!(w.dataset.len(), 32);
        assert_eq!(w.record_tags.len(), 32);
        for (rec, tags) in w.dataset.records.iter().zip(w.record_tags.iter()) {
            assert_eq!(tags.len(), w.dataset.ns);
            // Visible positions have tags, padding does not.
            assert!(tags[..rec.visible].iter().all(|t| t.is_some()));
            assert!(tags[rec.visible..].iter().all(|t| t.is_none()));
        }
    }

    #[test]
    fn nmt_tag_hypotheses_match_annotations() {
        let w = nmt::build(&nmt::NmtWorkloadConfig {
            n_sentences: 16,
            seed: 6,
        });
        let hyps = nmt::tag_hypotheses(&w, &["DT", "."]);
        let rec = &w.dataset.records[0];
        let dt = hyps[0].behavior(rec).unwrap();
        for (i, tag) in w.record_tags[0].iter().enumerate() {
            let expected = matches!(tag.as_deref(), Some("DT"));
            assert_eq!(dt[i] > 0.5, expected, "symbol {i}");
        }
    }

    #[test]
    fn nmt_phrase_hypotheses_mark_np_spans() {
        let w = nmt::build(&nmt::NmtWorkloadConfig {
            n_sentences: 64,
            seed: 7,
        });
        let hyps = nmt::phrase_hypotheses(&w);
        let np = &hyps[0];
        // Find a record starting with DT JJ NN (template 1).
        let rec_idx = (0..w.dataset.len())
            .find(|&i| {
                matches!(w.record_tags[i][0].as_deref(), Some("DT"))
                    && matches!(w.record_tags[i][1].as_deref(), Some("JJ"))
                    && matches!(w.record_tags[i][2].as_deref(), Some("NN"))
            })
            .expect("template 1 appears");
        let b = np.behavior(&w.dataset.records[rec_idx]).unwrap();
        assert_eq!(&b[..3], &[1.0, 1.0, 1.0], "DT JJ NN span marked");
    }

    #[test]
    fn nmt_training_runs() {
        let w = nmt::build(&nmt::NmtWorkloadConfig {
            n_sentences: 12,
            seed: 8,
        });
        let model = nmt::train_model(&w, 8, 8, 1, 0.01, 9);
        let (src, _) = &w.train_pairs[0];
        let acts = model.encoder_activations_all(src);
        assert_eq!(acts.shape(), (src.len(), 16));
    }
}
