//! Loop-nest structure of a transition system: back edges, headers, bodies, nesting.
//!
//! The invariant engine (see the `dca_invariants` crate) and loop-phase splitting
//! (`split.rs`) need to know *where the loops are*: widening should only happen along
//! back edges, and a phase split rewrites one loop's header and body. This module
//! derives that structure from the raw transition graph.
//!
//! The control-flow graphs produced by the `dca_lang` lowering are reducible (structured
//! `while`/`if` programs), so the classic depth-first-search characterization applies: a
//! *back edge* is a transition whose target is on the current DFS stack, its target is a
//! *loop header*, and the *natural loop body* of a header is everything that can reach
//! the back edge's source without passing through the header. Hand-built irreducible
//! graphs degrade gracefully: every DFS-retreating edge is treated as a back edge, which
//! over-approximates the set of widening points (sound for the analysis, merely less
//! precise).

use std::collections::{BTreeMap, BTreeSet};

use crate::system::{LocId, TransitionSystem};

/// One back edge of the transition graph: `source -> header` closes a loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackEdge {
    /// Index of the transition in [`TransitionSystem::transitions`].
    pub transition: usize,
    /// The source location (inside the loop).
    pub source: LocId,
    /// The loop-header location the edge jumps back to.
    pub header: LocId,
}

/// The loop-nest structure of a transition system.
///
/// # Examples
///
/// ```
/// use dca_ir::{LoopNest, TsBuilder, Update};
/// use dca_poly::{LinExpr, Polynomial};
///
/// // while (i < n) { i++ }
/// let mut b = TsBuilder::new();
/// let i = b.var("i");
/// let n = b.var("n");
/// let head = b.location("head");
/// let out = b.terminal();
/// b.set_initial(head);
/// b.add_theta0(LinExpr::var(n));
/// b.transition(head, head)
///     .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
///     .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
///     .finish();
/// b.transition(head, out).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
/// let ts = b.build().unwrap();
///
/// let nest = LoopNest::analyze(&ts);
/// assert!(nest.is_header(head));
/// assert_eq!(nest.depth(head), 1);
/// assert_eq!(nest.depth(out), 0);
/// ```
#[derive(Debug, Clone)]
pub struct LoopNest {
    back_edges: Vec<BackEdge>,
    /// Header -> all locations of its natural loop (header included).
    bodies: BTreeMap<LocId, BTreeSet<LocId>>,
    /// Location -> nesting depth (0 = outside every loop).
    depths: BTreeMap<LocId, usize>,
}

impl LoopNest {
    /// Computes the loop nest of a transition system.
    ///
    /// The terminal self-loop required by the paper's model is *not* reported as a loop:
    /// it carries no computation and would otherwise make every system "looping".
    pub fn analyze(ts: &TransitionSystem) -> LoopNest {
        let num_locs = ts.num_locations();
        let mut successors: Vec<Vec<(usize, LocId)>> = vec![Vec::new(); num_locs];
        for (index, t) in ts.transitions().iter().enumerate() {
            if t.source == ts.terminal() && t.target == ts.terminal() {
                continue;
            }
            successors[t.source.index()].push((index, t.target));
        }

        // Iterative DFS from the initial location; an edge to a location still on the
        // stack is a back edge.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            Unseen,
            OnStack,
            Done,
        }
        let mut marks = vec![Mark::Unseen; num_locs];
        let mut back_edges: Vec<BackEdge> = Vec::new();
        // (location, next successor index) frames.
        let mut stack: Vec<(LocId, usize)> = vec![(ts.initial(), 0)];
        marks[ts.initial().index()] = Mark::OnStack;
        while let Some(&mut (loc, ref mut next)) = stack.last_mut() {
            if let Some(&(transition, target)) = successors[loc.index()].get(*next) {
                *next += 1;
                match marks[target.index()] {
                    Mark::Unseen => {
                        marks[target.index()] = Mark::OnStack;
                        stack.push((target, 0));
                    }
                    Mark::OnStack => {
                        back_edges.push(BackEdge { transition, source: loc, header: target });
                    }
                    Mark::Done => {}
                }
            } else {
                marks[loc.index()] = Mark::Done;
                stack.pop();
            }
        }

        // Natural loop of each back edge: everything reaching the back-edge source
        // backwards without going through the header.
        let mut predecessors: Vec<Vec<LocId>> = vec![Vec::new(); num_locs];
        for t in ts.transitions() {
            if t.source == ts.terminal() && t.target == ts.terminal() {
                continue;
            }
            predecessors[t.target.index()].push(t.source);
        }
        let mut bodies: BTreeMap<LocId, BTreeSet<LocId>> = BTreeMap::new();
        for edge in &back_edges {
            let body = bodies.entry(edge.header).or_default();
            body.insert(edge.header);
            let mut worklist = vec![edge.source];
            while let Some(loc) = worklist.pop() {
                if body.insert(loc) {
                    worklist.extend(predecessors[loc.index()].iter().copied());
                }
            }
        }

        // Nesting depth of a location: the number of loop bodies containing it.
        let mut depths: BTreeMap<LocId, usize> = BTreeMap::new();
        for loc in ts.locations() {
            let depth = bodies.values().filter(|body| body.contains(&loc)).count();
            depths.insert(loc, depth);
        }

        LoopNest { back_edges, bodies, depths }
    }

    /// All back edges, in DFS discovery order.
    pub fn back_edges(&self) -> &[BackEdge] {
        &self.back_edges
    }

    /// The loop headers (targets of back edges), outermost-first by nesting depth.
    pub fn headers(&self) -> Vec<LocId> {
        let mut headers: Vec<LocId> = self.bodies.keys().copied().collect();
        headers.sort_by_key(|h| (self.depth(*h), h.index()));
        headers
    }

    /// Returns `true` if `loc` is a loop header.
    pub fn is_header(&self, loc: LocId) -> bool {
        self.bodies.contains_key(&loc)
    }

    /// The locations of the natural loop of `header` (header included), or `None` if the
    /// location is not a header.
    pub fn body(&self, header: LocId) -> Option<&BTreeSet<LocId>> {
        self.bodies.get(&header)
    }

    /// The loop-nesting depth of a location (0 = not inside any loop).
    pub fn depth(&self, loc: LocId) -> usize {
        self.depths.get(&loc).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{TsBuilder, Update};
    use dca_poly::{LinExpr, Polynomial};

    /// for i in 0..n { for j in 0..m { .. } } as a 4-location system.
    fn nested() -> (TransitionSystem, LocId, LocId) {
        let mut b = TsBuilder::new();
        let i = b.var("i");
        let j = b.var("j");
        let n = b.var("n");
        let m = b.var("m");
        let outer = b.location("outer");
        let inner = b.location("inner");
        let out = b.terminal();
        b.set_initial(outer);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.transition(outer, inner)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::zero()))
            .finish();
        b.transition(inner, inner)
            .guard(LinExpr::var(m) - LinExpr::var(j) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::var(j) + Polynomial::from_int(1)))
            .finish();
        b.transition(inner, outer)
            .guard(LinExpr::var(j) - LinExpr::var(m))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .finish();
        b.transition(outer, out)
            .guard(LinExpr::var(i) - LinExpr::var(n))
            .finish();
        let ts = b.build().unwrap();
        (ts, outer, inner)
    }

    #[test]
    fn nested_loop_structure() {
        let (ts, outer, inner) = nested();
        let nest = LoopNest::analyze(&ts);
        assert_eq!(nest.back_edges().len(), 2);
        assert!(nest.is_header(outer));
        assert!(nest.is_header(inner));
        assert_eq!(nest.headers(), vec![outer, inner]);
        assert_eq!(nest.depth(outer), 1);
        assert_eq!(nest.depth(inner), 2);
        assert_eq!(nest.depth(ts.terminal()), 0);
        // The outer body contains the inner loop entirely.
        let outer_body = nest.body(outer).unwrap();
        assert!(outer_body.contains(&inner));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let start = b.location("start");
        let out = b.terminal();
        b.set_initial(start);
        b.add_theta0(LinExpr::var(x));
        b.transition(start, out).finish();
        let ts = b.build().unwrap();
        let nest = LoopNest::analyze(&ts);
        assert!(nest.back_edges().is_empty());
        assert!(nest.headers().is_empty());
        assert!(!nest.is_header(start));
        // The terminal self-loop is not reported as a loop.
        assert_eq!(nest.depth(out), 0);
    }

    /// The shape the `dca_lang` lowering produces: headers separated from the back-edge
    /// sources by intermediate "step" locations.
    #[test]
    fn headers_found_through_intermediate_locations() {
        let mut b = TsBuilder::new();
        let i = b.var("i");
        let n = b.var("n");
        let entry = b.location("entry");
        let head = b.location("while_head");
        let body = b.location("body");
        let step = b.location("step");
        let exit = b.location("while_exit");
        let out = b.terminal();
        b.set_initial(entry);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.transition(entry, head)
            .update(i, Update::assign(Polynomial::zero()))
            .finish();
        b.transition(head, body)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .finish();
        b.transition(body, step)
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .finish();
        b.transition(step, head).finish();
        b.transition(head, exit).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
        b.transition(exit, out).finish();
        let ts = b.build().unwrap();
        let nest = LoopNest::analyze(&ts);
        assert_eq!(nest.headers(), vec![head]);
        let loop_body = nest.body(head).unwrap();
        assert!(loop_body.contains(&body) && loop_body.contains(&step));
        assert!(!loop_body.contains(&entry) && !loop_body.contains(&exit));
        assert_eq!(nest.depth(body), 1);
    }
}
