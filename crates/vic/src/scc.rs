//! Tarjan's strongly-connected components over statement graphs.

/// Computes the strongly-connected components of the directed graph on the
/// nodes `0..n` with the given `edges`. Components come out in topological
/// order: every edge goes from an earlier component to a later one (or
/// stays within a component). Each component lists its nodes ascending, and
/// successors are visited in edge order, so the result is a function of the
/// edge sequence: another order of the same edges may yield another valid
/// topological order.
pub fn strongly_connected_components(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
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
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: start, edge: 0 }];
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_singletons_in_order() {
        let comps = strongly_connected_components(3, &[(0, 1), (1, 2)]);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn cycle_collapses() {
        let comps = strongly_connected_components(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(comps, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn self_loop_is_its_own_component() {
        let comps = strongly_connected_components(2, &[(0, 0), (0, 1)]);
        assert_eq!(comps, vec![vec![0], vec![1]]);
    }

    #[test]
    fn diamond_topological_order() {
        let comps = strongly_connected_components(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(comps.len(), 4);
        assert_eq!(comps[0], vec![0]);
        assert_eq!(comps[3], vec![3]);
    }

    #[test]
    fn disconnected_nodes_all_appear() {
        let comps = strongly_connected_components(4, &[(2, 3)]);
        assert_eq!(comps.iter().flatten().count(), 4);
    }

    #[test]
    fn big_cycle() {
        let n = 500;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let comps = strongly_connected_components(n, &edges);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n);
    }
}
