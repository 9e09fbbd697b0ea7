//! The synthetic SQL grammar of the paper's scalability benchmark (§6.1).
//!
//! The paper samples SQL queries from a PCFG, choosing grammar subsets of
//! 95–171 production rules to vary language complexity and hypothesis
//! count. Rule count is controlled here by the number of table/column
//! alternatives and by optional clauses (ORDER BY / LIMIT / GROUP BY),
//! mirroring how the paper scales its grammar.

use crate::grammar::Grammar;

/// Knobs controlling the generated grammar's size and complexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqlGrammarConfig {
    /// Number of distinct table-name alternatives (`table_0`…).
    pub tables: usize,
    /// Number of distinct column-name alternatives (`col_00`…).
    pub columns: usize,
    /// Include `ORDER BY` clause rules.
    pub with_order: bool,
    /// Include `LIMIT` clause rules.
    pub with_limit: bool,
    /// Include `GROUP BY` clause rules.
    pub with_group: bool,
}

impl Default for SqlGrammarConfig {
    fn default() -> Self {
        // The paper's default setup reports 142 grammar rules.
        SqlGrammarConfig {
            tables: 10,
            columns: 70,
            with_order: true,
            with_limit: true,
            with_group: false,
        }
    }
}

impl SqlGrammarConfig {
    /// Small grammar (~95 rules, the paper's lower bound).
    pub fn small() -> Self {
        SqlGrammarConfig {
            tables: 6,
            columns: 30,
            with_order: false,
            with_limit: false,
            with_group: false,
        }
    }

    /// Default grammar (~142 rules, the paper's default).
    pub fn medium() -> Self {
        SqlGrammarConfig::default()
    }
}

/// Builds the grammar spec text for a configuration. Exposed so tests and
/// docs can display the grammar; use [`sql_grammar`] for the parsed form.
pub(crate) fn sql_grammar_spec(config: &SqlGrammarConfig) -> String {
    let mut spec = String::new();
    spec.push_str("query -> select_stmt ;\n");

    let mut tail = String::new();
    tail.push_str(" opt_where");
    if config.with_group {
        tail.push_str(" opt_group");
    }
    if config.with_order {
        tail.push_str(" opt_order");
    }
    if config.with_limit {
        tail.push_str(" opt_limit");
    }
    spec.push_str(&format!(
        "select_stmt -> select_kw ' ' select_list ' ' from_kw ' ' table_list{tail} ;\n"
    ));
    spec.push_str("select_kw -> 'SELECT' ;\n");
    spec.push_str("from_kw -> 'FROM' ;\n");
    spec.push_str("select_list -> {3.0} column_ref | column_ref ',' ' ' select_list ;\n");
    spec.push_str("column_ref -> {2.0} qualified_col | column_name ;\n");
    spec.push_str("qualified_col -> table_name '.' column_name ;\n");
    spec.push_str("table_list -> {3.0} table_name | table_name ',' ' ' table_list ;\n");
    spec.push_str("opt_where -> {2.0} | ' ' where_kw ' ' predicate ;\n");
    spec.push_str("where_kw -> 'WHERE' ;\n");
    spec.push_str(
        "predicate -> {3.0} comparison | comparison ' ' and_kw ' ' predicate | comparison ' ' or_kw ' ' predicate ;\n",
    );
    spec.push_str("and_kw -> 'AND' ;\n");
    spec.push_str("or_kw -> 'OR' ;\n");
    spec.push_str("comparison -> column_ref comp_op value ;\n");
    spec.push_str("comp_op -> ' = ' | ' < ' | ' > ' | ' <= ' | ' >= ' | ' <> ' ;\n");
    spec.push_str("value -> {2.0} number | string_lit ;\n");
    spec.push_str("number -> {3.0} digit | digit number ;\n");
    spec.push_str("digit -> '0' | '1' | '2' | '3' | '4' | '5' | '6' | '7' | '8' | '9' ;\n");
    spec.push_str("string_lit -> quote word quote ;\n");
    spec.push_str("quote -> '\\'' ;\n");
    spec.push_str("word -> {3.0} letter | letter word ;\n");
    spec.push_str("letter -> 'a' | 'b' | 'c' | 'd' | 'e' | 'f' | 'g' | 'h' ;\n");

    if config.with_group {
        spec.push_str("opt_group -> {2.0} | ' ' group_kw ' ' column_ref ;\n");
        spec.push_str("group_kw -> 'GROUP BY' ;\n");
    }
    if config.with_order {
        spec.push_str("opt_order -> {2.0} | ' ' order_kw ' ' ordering_term ;\n");
        spec.push_str("order_kw -> 'ORDER BY' ;\n");
        spec.push_str("ordering_term -> column_ref direction ;\n");
        spec.push_str("direction -> | ' ASC' | ' DESC' ;\n");
    }
    if config.with_limit {
        spec.push_str("opt_limit -> {2.0} | ' ' limit_kw ' ' number ;\n");
        spec.push_str("limit_kw -> 'LIMIT' ;\n");
    }

    let table_alts: Vec<String> = (0..config.tables.max(1))
        .map(|i| format!("'table_{i}'"))
        .collect();
    spec.push_str(&format!("table_name -> {} ;\n", table_alts.join(" | ")));
    let col_alts: Vec<String> = (0..config.columns.max(1))
        .map(|i| format!("'col_{i:02}'"))
        .collect();
    spec.push_str(&format!("column_name -> {} ;\n", col_alts.join(" | ")));

    spec
}

/// Builds the SQL grammar for a configuration.
pub fn sql_grammar(config: &SqlGrammarConfig) -> Grammar {
    Grammar::from_spec(&sql_grammar_spec(config)).expect("builtin SQL grammar must parse")
}

/// The SQL keywords used by keyword hypotheses and the Fig. 1 walkthrough.
pub const SQL_KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "ORDER BY", "GROUP BY", "LIMIT", "ASC", "DESC",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::earley::EarleyParser;
    use deepbase_tensor::init::seeded_rng;

    /// The paper's upper bound (~171 rules).
    fn large() -> SqlGrammarConfig {
        SqlGrammarConfig {
            tables: 16,
            columns: 90,
            with_order: true,
            with_limit: true,
            with_group: true,
        }
    }

    #[test]
    fn preset_rule_counts_span_papers_range() {
        let small = sql_grammar(&SqlGrammarConfig::small()).rule_count();
        let medium = sql_grammar(&SqlGrammarConfig::medium()).rule_count();
        let large = sql_grammar(&large()).rule_count();
        assert!(small < medium && medium < large, "{small} {medium} {large}");
        // The paper varies 95–171 rules; presets must land in that band.
        assert!((85..=110).contains(&small), "small {small}");
        assert!((130..=155).contains(&medium), "medium {medium}");
        assert!((160..=185).contains(&large), "large {large}");
    }

    #[test]
    fn samples_start_with_select() {
        let g = sql_grammar(&SqlGrammarConfig::medium());
        let mut rng = seeded_rng(7);
        for _ in 0..20 {
            let (q, _) = g.sample(&mut rng, 12);
            assert!(q.starts_with("SELECT "), "query {q:?}");
            assert!(q.contains(" FROM "), "query {q:?}");
        }
    }

    #[test]
    fn sampled_queries_reparse() {
        let g = sql_grammar(&SqlGrammarConfig::small());
        let parser = EarleyParser::new(&g);
        let mut rng = seeded_rng(13);
        for _ in 0..10 {
            let (q, _) = g.sample(&mut rng, 10);
            assert!(parser.recognizes(&q), "sampled query must reparse: {q}");
        }
    }

    #[test]
    fn ground_truth_tree_contains_clause_rules() {
        let g = sql_grammar(&SqlGrammarConfig::medium());
        let mut rng = seeded_rng(99);
        // Sample until a query has a WHERE clause.
        for _ in 0..200 {
            let (q, tree) = g.sample(&mut rng, 14);
            if q.contains("WHERE") {
                assert!(!tree.spans_of("where_kw").is_empty());
                assert!(!tree.spans_of("predicate").is_empty());
                return;
            }
        }
        panic!("no WHERE query sampled in 200 tries");
    }

    #[test]
    fn alphabet_is_stable_across_configs() {
        // Extending tables/columns must not change the character alphabet —
        // the char-level model's input layer depends on it.
        let a1 = sql_grammar(&SqlGrammarConfig::small()).alphabet();
        let a2 = sql_grammar(&large()).alphabet();
        for c in &a1 {
            assert!(a2.contains(c));
        }
    }

    #[test]
    fn table_and_column_names_parse_digits() {
        // table_10+ style names need two digit chars; ensure the grammar's
        // terminals include what its names use.
        let g = sql_grammar(&SqlGrammarConfig {
            tables: 12,
            ..Default::default()
        });
        let mut rng = seeded_rng(3);
        let (q, _) = g.sample(&mut rng, 10);
        assert!(q.contains("table_"));
    }
}
