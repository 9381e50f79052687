//! `tapbench-alloc`: the benchmark with the counting allocator installed,
//! for traced (per-layer) runs; untraced runs use `tapbench` so the count
//! costs nothing there.

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator::new();

fn main() -> std::process::ExitCode {
    vprofile_tapbench::main_with(Some(|| {
        let counts = ALLOC.snapshot();
        (counts.total_allocations(), counts.bytes_requested)
    }))
}
