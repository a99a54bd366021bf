//! Tarjan's strongly-connected components over statement graphs.

/// Computes the strongly-connected components of the directed graph on the
/// nodes `0..n` with the given `edges`. Components come out in topological
/// order: every edge goes from an earlier component to a later one (or
/// stays within a component). Each component lists its nodes ascending, and
/// successors are visited in edge order, so the result is a function of the
/// edge sequence: another order of the same edges may yield another valid
/// topological order.
///
/// The edges are read twice, to size and then fill one successor table,
/// so a caller can pass a filtered view of its edge list without copying
/// it.
pub fn strongly_connected_components<I>(n: usize, edges: I) -> Vec<Vec<usize>>
where
    I: IntoIterator<Item = (usize, usize)>,
    I::IntoIter: Clone,
{
    let edges = edges.into_iter();
    // Successors in one table, each node's run in edge order: count, then
    // place with `start[a]` as the cursor, which leaves it at `start[a + 1]`.
    let mut start = vec![0usize; n + 1];
    for (a, _) in edges.clone() {
        start[a] += 1;
    }
    let mut sum = 0;
    for s in &mut start {
        sum += *s;
        *s = sum - *s;
    }
    let mut succ = vec![0usize; sum];
    for (a, b) in edges.clone() {
        succ[start[a]] = b;
        start[a] += 1;
    }
    start.rotate_right(1);
    start[0] = 0;

    #[derive(Clone, Copy)]
    struct Node {
        index: usize,
        low: usize,
        on_stack: bool,
    }
    let mut node = vec![Node { index: usize::MAX, low: 0, on_stack: false }; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut counter = 0usize;
    let mut components: Vec<Vec<usize>> = Vec::new();

    // Iterative Tarjan to avoid recursion limits on long statement lists;
    // `next` is the frame's cursor into `succ`.
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        next: usize,
    }
    let mut call: Vec<Frame> = Vec::new();
    let mut visit = |v: usize, stack: &mut Vec<usize>, call: &mut Vec<Frame>, node: &mut [Node]| {
        node[v] = Node { index: counter, low: counter, on_stack: true };
        counter += 1;
        stack.push(v);
        call.push(Frame { v, next: start[v] });
    };
    for root in 0..n {
        if node[root].index != usize::MAX {
            continue;
        }
        visit(root, &mut stack, &mut call, &mut node);
        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.next < start[v + 1] {
                let w = succ[frame.next];
                frame.next += 1;
                if node[w].index == usize::MAX {
                    visit(w, &mut stack, &mut call, &mut node);
                } else if node[w].on_stack {
                    node[v].low = node[v].low.min(node[w].index);
                }
            } else {
                if node[v].low == node[v].index {
                    let mut comp = Vec::new();
                    loop {
                        // Tarjan invariant: the stack holds at least v
                        // itself whenever low[v] == index[v].
                        let Some(w) = stack.pop() else {
                            unreachable!("SCC stack drained before reaching its root")
                        };
                        node[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    components.push(comp);
                }
                let low_v = node[v].low;
                call.pop();
                if let Some(parent) = call.last() {
                    node[parent.v].low = node[parent.v].low.min(low_v);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order; reverse them.
    components.reverse();
    // Sanity: every edge respects the order.
    debug_assert!({
        let mut pos = vec![0; n];
        for (i, c) in components.iter().enumerate() {
            for &v in c {
                pos[v] = i;
            }
        }
        edges.clone().all(|(a, b)| pos[a] <= pos[b])
    });
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tarjan over `Vec<Vec<usize>>` adjacency with per-root call stacks,
    /// as it was before the successor table.
    fn reference(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
        }
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut counter = 0usize;
        let mut components: Vec<Vec<usize>> = Vec::new();

        // Iterative Tarjan to avoid recursion limits on long statement lists.
        #[derive(Clone, Copy)]
        struct Frame {
            v: usize,
            edge: usize,
        }
        let mut call: Vec<Frame> = Vec::new();
        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call.push(Frame { v: start, edge: 0 });
            index[start] = counter;
            low[start] = counter;
            counter += 1;
            stack.push(start);
            on_stack[start] = true;
            while let Some(frame) = call.last_mut() {
                let v = frame.v;
                if frame.edge < adj[v].len() {
                    let w = adj[v][frame.edge];
                    frame.edge += 1;
                    if index[w] == usize::MAX {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        call.push(Frame { v: w, edge: 0 });
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            // Tarjan invariant: the stack holds at least v
                            // itself whenever low[v] == index[v].
                            let Some(w) = stack.pop() else {
                                unreachable!("SCC stack drained before reaching its root")
                            };
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        components.push(comp);
                    }
                    let low_v = low[v];
                    call.pop();
                    if let Some(parent) = call.last() {
                        low[parent.v] = low[parent.v].min(low_v);
                    }
                }
            }
        }
        // Tarjan emits components in reverse topological order; reverse them.
        components.reverse();
        // Sanity: every edge respects the order.
        debug_assert!({
            let mut pos = vec![0; n];
            for (i, c) in components.iter().enumerate() {
                for &v in c {
                    pos[v] = i;
                }
            }
            edges.iter().all(|&(a, b)| pos[a] <= pos[b])
        });
        components
    }

    proptest! {
        /// Random graphs with self-loops and repeated edges.
        #[test]
        fn successor_table_matches_the_reference(
            n in 1usize..12,
            raw in prop::collection::vec((0usize..12, 0usize..12), 0..40),
        ) {
            let edges: Vec<(usize, usize)> = raw.iter().map(|&(a, b)| (a % n, b % n)).collect();
            prop_assert_eq!(
                strongly_connected_components(n, edges.iter().copied()),
                reference(n, &edges)
            );
        }
    }

    #[test]
    fn chain_is_singletons_in_order() {
        let comps = strongly_connected_components(3, [(0, 1), (1, 2)]);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn cycle_collapses() {
        let comps = strongly_connected_components(3, [(0, 1), (1, 0), (1, 2)]);
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let comps = strongly_connected_components(2, [(0, 0), (0, 1)]);
        assert_eq!(comps, vec![vec![0], vec![1]]);
    }

    #[test]
    fn diamond_topological_order() {
        let comps = strongly_connected_components(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(comps.len(), 4);
        assert_eq!(comps[0], vec![0]);
        assert_eq!(comps[3], vec![3]);
    }

    #[test]
    fn disconnected_nodes_all_appear() {
        let comps = strongly_connected_components(4, [(2, 3)]);
        assert_eq!(comps.iter().flatten().count(), 4);
    }

    #[test]
    fn big_cycle() {
        let n = 500;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let comps = strongly_connected_components(n, edges);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n);
    }
}
