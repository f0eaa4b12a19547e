//! Closed-loop client driver: each client sends its next request only after
//! the previous one has completed, so a slower system receives less load.

/// CPUs the host offers this process.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Client threads a closed loop asking for `requested` clients runs: never
/// more than the host has CPUs, so that client threads do not queue for a
/// processor behind one another.
pub fn client_threads(requested: usize) -> usize {
    requested.clamp(1, host_cpus())
}

/// Runs [`client_threads`]`(clients)` client threads. Client `c` owns the
/// state `init(c)` and calls `step` on it until `step` returns `false`; the
/// states come back in client order once every thread has ended.
pub fn closed_loop<S, I, F>(clients: usize, init: I, step: F) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S,
    F: Fn(&mut S) -> bool + Sync,
{
    let step = &step;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..client_threads(clients))
            .map(|c| {
                let mut state = init(c);
                scope.spawn(move || {
                    while step(&mut state) {}
                    state
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a benchmark client thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn never_runs_more_clients_than_cpus() {
        let cpus = host_cpus();
        assert_eq!(client_threads(cpus + 3), cpus);
        assert_eq!(client_threads(0), 1);

        // Every client holds the barrier once, so all of them are alive at
        // the same time; the peak count is the number of threads run.
        let barrier = Barrier::new(cpus);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let states = closed_loop(
            cpus + 3,
            |c| (c, 0usize),
            |(_, calls)| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                if *calls == 0 {
                    barrier.wait();
                }
                live.fetch_sub(1, Ordering::SeqCst);
                *calls += 1;
                *calls < 5
            },
        );
        assert_eq!(states.len(), cpus);
        assert_eq!(peak.load(Ordering::SeqCst), cpus);
        for (c, (client, calls)) in states.into_iter().enumerate() {
            assert_eq!((client, calls), (c, 5));
        }
    }
}
