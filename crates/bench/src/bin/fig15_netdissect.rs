//! Figure 15 (Appendix E): DeepBase vs NetDissect inspection scores on a
//! CNN.
//!
//! Runs both pipelines over the synthetic annotated-shape corpus (the
//! Broden stand-in): NetDissect's reference implementation (streaming P²
//! quantile thresholds, nearest-neighbour upsampling, corpus-level IoU)
//! and DeepBase's declarative path (pixels as symbols, concept masks as
//! annotation hypotheses, Jaccard measure). Paper shape: strongly
//! correlated scores with small residuals from the online quantile
//! approximation.

use deepbase::vision::{
    cnn_accuracy, deepbase_cnn_scores, generate_shape_images, netdissect_scores, train_shape_cnn,
};
use deepbase_bench::{print_table, Args};

fn main() {
    let args = Args::parse();
    println!("== Figure 15: DeepBase vs NetDissect on a CNN ==\n");
    let n_images = args.scaled(if args.paper { 512 } else { 48 }, 8);
    let size = 16usize;
    let images = generate_shape_images(n_images, size, 7);
    let cnn = train_shape_cnn(&images, size, if args.paper { 20 } else { 6 }, 0.01, 8);
    println!(
        "{} images of {}x{} px; CNN accuracy {:.1}% over {} conv-2 units\n",
        n_images,
        size,
        size,
        cnn_accuracy(&cnn, &images) * 100.0,
        cnn.units()
    );

    let quantile = 0.95;
    let nd = netdissect_scores(&cnn, &images, quantile as f64);
    let db = deepbase_cnn_scores(&cnn, &images, size, quantile).expect("deepbase scores");

    let mut db_map = std::collections::HashMap::new();
    for (u, c, s) in &db {
        db_map.insert((*u, c.clone()), *s);
    }
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (u, concept, nd_score) in &nd {
        let db_score = db_map[&(*u, concept.clone())];
        xs.push(*nd_score);
        ys.push(db_score);
        rows.push(vec![
            format!("u{u}"),
            concept.clone(),
            format!("{nd_score:.3}"),
            format!("{db_score:.3}"),
        ]);
    }
    print_table(
        &["unit", "concept", "NetDissect IoU", "DeepBase Jaccard"],
        &rows,
    );
    let r = deepbase_stats::pearson(&xs, &ys);
    println!(
        "\nscore correlation r = {r:.3}  (paper: strongly correlated; residuals \
         come from the streaming-quantile approximation NetDissect uses)"
    );
}
