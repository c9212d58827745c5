//! The deterministic experiments' stdout is committed, and this test is
//! what keeps it true: every experiment registered before T11 (t1–t10 with
//! f1 and f2 where they sit) is rendered exactly as the `experiments` binary
//! prints it, and the bytes must equal `experiments_output.txt`, the one
//! copy of those bytes. T11 on runs real sockets; its seed-determined facts
//! are in `BENCH_net.json`, judged by the grid's lock test and
//! `bench-report --check`.

use uba_bench::{run_experiment, EXPERIMENTS};

#[test]
fn deterministic_experiments_print_the_committed_output() {
    let committed = include_str!("../../../experiments_output.txt");

    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|(id, _)| *id)
        .take_while(|id| *id != "t11")
        .collect();
    assert_eq!(
        ids,
        ["t1", "t2", "t3", "f1", "t4", "t5", "f2", "t6", "t7", "t8", "t9", "t10"]
    );
    let rendered: String = ids
        .iter()
        .flat_map(|id| run_experiment(id))
        .map(|table| format!("{table}\n"))
        .collect();

    if rendered != committed {
        let first_diff = rendered
            .lines()
            .zip(committed.lines())
            .position(|(fresh, pinned)| fresh != pinned)
            .unwrap_or_else(|| rendered.lines().count().min(committed.lines().count()));
        panic!(
            "experiments t1–t10 no longer print experiments_output.txt: first difference \
             at line {}\n  fresh:  {:?}\n  pinned: {:?}",
            first_diff + 1,
            rendered.lines().nth(first_diff),
            committed.lines().nth(first_diff),
        );
    }
}
