//! The full VIC-style pipeline: serial mini-FORTRAN in, vector
//! FORTRAN-90-style code out.
//!
//! Run with `cargo run --example vectorize_pipeline`.

use delinearization::vic::pipeline::{run_pipeline, PipelineConfig};
use delinearization::vic::{EngineConfig, TestChoice};

fn main() {
    let src = "
        REAL C(0:99), D(0:9)
        DO 1 i = 0, 4
        DO 1 j = 0, 9
    1   C(i + 10*j) = C(i + 10*j + 5)
        DO 2 i = 0, 8
    2   D(i + 1) = D(i)
        END
    ";
    println!("serial input:{src}");

    let with = run_pipeline(src, &PipelineConfig::default()).expect("pipeline");
    println!("== with delinearization ==");
    println!("{}", with.vector_code);
    println!(
        "vectorized {}/{} statements ({} vector dimensions)",
        with.vectorization.vectorized_statements,
        with.vectorization.total_statements,
        with.vectorization.vector_dimensions,
    );

    let battery = EngineConfig { choice: TestChoice::BatteryOnly, ..EngineConfig::default() };
    let without =
        run_pipeline(src, &PipelineConfig { engine: battery, ..PipelineConfig::default() })
            .expect("pipeline");
    println!("\n== classical battery only ==");
    println!("{}", without.vector_code);
    println!(
        "vectorized {}/{} statements",
        without.vectorization.vectorized_statements, without.vectorization.total_statements,
    );
}
