//! A wide self-join over the Facebook schema's `User` relation, for tests
//! that need a shape past the 64-variable mark.

use fdc::cq::{Atom, ConjunctiveQuery, Term};
use fdc::ecosystem::facebook_catalog;

/// `User(u, x1, …, x33), User(u, y1, …, y_fresh, 'c', 7, 'c', 7, …)`: a
/// self-join on `uid` whose second atom has `fresh` variables of its own and
/// constants in its remaining columns — `34 + fresh` variables in all.
pub fn user_join(fresh: usize) -> ConjunctiveQuery {
    let schema = facebook_catalog();
    let user = schema.user();
    let arity = schema.catalog.arity(user);
    assert_eq!(arity, 34);
    let first: Vec<Term> = (0..arity as u32)
        .map(|v| {
            if v % 2 == 0 {
                Term::dist(v)
            } else {
                Term::exist(v)
            }
        })
        .collect();
    let mut second = vec![Term::dist(0)];
    for column in 1..arity {
        second.push(if column <= fresh {
            Term::exist((arity + column - 1) as u32)
        } else if column % 2 == 0 {
            Term::constant("a constant longer than one hash word")
        } else {
            Term::constant(7)
        });
    }
    let query = ConjunctiveQuery::from_atoms(vec![Atom::new(user, first), Atom::new(user, second)])
        .unwrap();
    assert_eq!(query.num_vars(), arity + fresh);
    query
}
