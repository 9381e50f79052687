//! `tapbench`: the benchmark without allocation counting, for untraced
//! (end-to-end) runs.

fn main() -> std::process::ExitCode {
    vprofile_tapbench::main_with(None)
}
