//! Process entry point: run the command line, print.
//!
//! Failure classes map to stable exit codes via
//! [`BowError::exit_code`](bow::error::BowError::exit_code):
//! 2 parse, 3 config, 4 io, 5 verify (a panic exits 101, Rust's default).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match bow_cli::run(&args) {
        Ok(text) => print!("{text}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
