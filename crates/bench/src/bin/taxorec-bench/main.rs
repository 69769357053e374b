//! `taxorec-bench <name>`: every experiment of the harness behind one
//! binary. The paper's tables and figures, the §V-B runtime table, and
//! the two gated microbenchmarks are subcommands; each reads the same
//! `TAXOREC_*` variables and prints the same bytes as the standalone
//! binary it replaced.
//!
//! ```text
//! TAXOREC_SCALE=tiny TAXOREC_SEEDS=1 taxorec-bench table2
//! TAXOREC_HOTPATH_ITEMS=1024 taxorec-bench hotpath --assert-floor
//! ```

mod fig3;
mod fig5;
mod fig6;
mod hotpath;
mod retrieval;
mod runtime;
mod table1;
mod table2;
mod table3;
mod table4;
mod table5;

const USAGE: &str = "usage: taxorec-bench <name> [options]

  table1     Table I: dataset statistics
  table2     Table II: overall performance of 15 methods
  table3     Table III: ablation study
  table4     Table IV: hyperparameter study
  table5     Table V: tag-based user profiles
  fig3       Fig. 3: Euclidean vs hyperbolic tag layout
  fig5       Fig. 5: Recall@10 vs embedding dimension
  fig6       Fig. 6: constructed taxonomies and recovery
  runtime    Sec. V-B: taxonomy construction vs one epoch
  hotpath    ranking-path microbenchmark [--assert-floor]
  retrieval  retrieval-index benchmark [--assert-floor] [--retrieval beam:B]";

fn main() {
    let run: fn() = match std::env::args().nth(1).as_deref() {
        Some("table1") => table1::run,
        Some("table2") => table2::run,
        Some("table3") => table3::run,
        Some("table4") => table4::run,
        Some("table5") => table5::run,
        Some("fig3") => fig3::run,
        Some("fig5") => fig5::run,
        Some("fig6") => fig6::run,
        Some("runtime") => runtime::run,
        Some("hotpath") => hotpath::run,
        Some("retrieval") => retrieval::run,
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    run();
}
