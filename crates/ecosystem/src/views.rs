//! Security views for the evaluation schema.
//!
//! Section 7.2: "For each relation, we selected a set of security views that
//! could support the confidentiality policies described in Facebook's
//! developer documentation.  The most complex relation, the User relation,
//! required us to define a generating set `Fgen` with 16 distinct security
//! views; most of the other relations we considered could be modeled using
//! just three views."
//!
//! We follow the same structure: the `User` relation gets 16 projection
//! views, one per permission-like attribute cluster (plus the full view),
//! and every other relation gets three views (full projection, a metadata
//! projection, and a presence view).  Every view exposes the `uid` and
//! `is_friend` columns so that audience-restricted queries remain
//! answerable from the view that grants the underlying attributes.

use fdc_core::SecurityViews;
use fdc_cq::query::QueryBuilder;
use fdc_cq::{ConjunctiveQuery, RelId};

use crate::schema::FacebookSchema;

/// Builds a single-atom projection view over `relation` exposing exactly the
/// named columns (as distinguished variables); all other columns are
/// existential.
pub fn projection_view(
    schema: &FacebookSchema,
    relation: RelId,
    exposed: &[&str],
) -> ConjunctiveQuery {
    let rel_schema = schema.catalog.relation(relation);
    let mut builder = QueryBuilder::new();
    let args: Vec<fdc_cq::query::Arg> = rel_schema
        .attributes
        .iter()
        .map(|attr| {
            let var = if exposed.contains(&attr.as_str()) {
                builder.dvar(attr)
            } else {
                builder.evar(attr)
            };
            fdc_cq::query::Arg::Var(var)
        })
        .collect();
    builder.atom(relation, args);
    builder.build().expect("projection views are valid queries")
}

/// The 15 attribute clusters (permissions) of the `User` relation; together
/// with the full view they form the 16 `User` security views of the paper's
/// evaluation.
///
/// Every cluster implicitly also exposes `uid` and `is_friend`.
pub const USER_PERMISSION_CLUSTERS: [(&str, &[&str]); 15] = [
    (
        "public_profile",
        &[
            "name",
            "first_name",
            "middle_name",
            "last_name",
            "gender",
            "locale",
            "username",
            "verified",
        ],
    ),
    ("user_about_me", &["bio", "quotes"]),
    ("user_birthday", &["birthday"]),
    ("user_education_history", &["education"]),
    ("user_work_history", &["work"]),
    ("user_hometown", &["hometown"]),
    ("user_location", &["location"]),
    (
        "user_relationships",
        &["relationship_status", "significant_other", "interested_in"],
    ),
    ("user_religion_politics", &["religion", "political"]),
    ("user_website", &["website", "profile_url"]),
    (
        "user_likes",
        &["favorite_athletes", "favorite_teams", "languages"],
    ),
    ("user_picture", &["pic"]),
    ("user_status", &["updated_time"]),
    ("user_contact", &["email", "third_party_id"]),
    ("user_devices", &["devices", "timezone", "is_app_user"]),
];

/// Builds the full security-view registry for the evaluation schema:
/// 16 views for `User`, 3 for each of the other seven relations (37 total).
pub fn facebook_security_views(schema: &FacebookSchema) -> SecurityViews {
    let mut registry = SecurityViews::new(&schema.catalog);

    // --- User: 15 permission clusters + the full view -------------------
    let user = schema.user();
    for (name, cluster) in USER_PERMISSION_CLUSTERS {
        let mut exposed: Vec<&str> = vec!["uid", "is_friend"];
        exposed.extend_from_slice(cluster);
        let view = projection_view(schema, user, &exposed);
        registry
            .add(name, view)
            .expect("user cluster views are valid and uniquely named");
    }
    let all_user_columns: Vec<&str> = schema
        .catalog
        .relation(user)
        .attributes
        .iter()
        .map(String::as_str)
        .collect();
    registry
        .add(
            "user_full",
            projection_view(schema, user, &all_user_columns),
        )
        .expect("full user view is valid");

    // --- Every other relation: full / metadata / presence ---------------
    for (relation, rel_schema) in schema.catalog.iter() {
        if relation == user {
            continue;
        }
        let rel_name = rel_schema.name.to_lowercase();
        let all: Vec<&str> = rel_schema.attributes.iter().map(String::as_str).collect();
        registry
            .add(
                &format!("{rel_name}_full"),
                projection_view(schema, relation, &all),
            )
            .expect("full views are valid");

        // Metadata: uid, is_friend, plus up to two leading non-content
        // columns (ids / timestamps).
        let mut meta: Vec<&str> = vec!["uid", "is_friend"];
        for attr in &rel_schema.attributes {
            if meta.len() >= 4 {
                break;
            }
            if attr.ends_with("_id") || attr.ends_with("_time") {
                meta.push(attr);
            }
        }
        registry
            .add(
                &format!("{rel_name}_meta"),
                projection_view(schema, relation, &meta),
            )
            .expect("metadata views are valid");

        // Presence: only uid and is_friend.
        registry
            .add(
                &format!("{rel_name}_presence"),
                projection_view(schema, relation, &["uid", "is_friend"]),
            )
            .expect("presence views are valid");
    }

    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::facebook_catalog;
    use fdc_core::{BitVectorLabeler, QueryLabeler};
    use fdc_cq::parser::parse_query;

    #[test]
    fn view_counts_match_the_paper() {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        // 16 User views + 3 views for each of the 7 other relations.
        assert_eq!(registry.len(), 16 + 7 * 3);
        assert_eq!(registry.views_for_relation(schema.user()).len(), 16);
        for (relation, _) in schema.catalog.iter() {
            if relation != schema.user() {
                assert_eq!(
                    registry.views_for_relation(relation).len(),
                    3,
                    "relation {} should have 3 views",
                    schema.catalog.name(relation)
                );
            }
        }
        assert_eq!(registry.num_relations_covered(), 8);
    }

    #[test]
    fn every_view_is_a_projection_of_its_relation() {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        for (_, view) in registry.iter() {
            assert!(view.query.is_single_atom());
            assert!(view.query.validate(&schema.catalog).is_ok());
            assert!(!view.query.atom(0).has_constants());
            assert!(!view.query.atom(0).has_repeated_vars());
        }
    }

    #[test]
    fn cluster_attributes_exist_in_the_user_relation() {
        let schema = facebook_catalog();
        let user = schema.catalog.relation(schema.user());
        let mut covered: Vec<&str> = vec!["uid", "is_friend"];
        for (name, cluster) in USER_PERMISSION_CLUSTERS {
            assert!(!name.is_empty());
            for attr in cluster {
                assert!(
                    user.attribute_position(attr).is_some(),
                    "cluster {name} references unknown attribute {attr}"
                );
                covered.push(attr);
            }
        }
        // The clusters plus uid/is_friend cover every User attribute, so the
        // full view is the only view that is strictly above all of them.
        covered.sort_unstable();
        covered.dedup();
        assert_eq!(covered.len(), user.arity());
    }

    #[test]
    fn labeling_recovers_the_expected_permission() {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let labeler = BitVectorLabeler::new(registry);
        let catalog = &schema.catalog;

        // Asking for a friend's birthday needs user_birthday (or the full
        // view), not the location cluster.
        let q = parse_query(
            catalog,
            "Q(u, b) :- User(u, n, fn, mn, ln, g, lo, la, un, tp, tz, ut, v, bio, b, d, e, em, h, ii, loc, p, fa, ft, pic, pu, q, rs, r, so, w, wo, ia, fr)",
        )
        .unwrap();
        let label = labeler.label_query(&q);
        let described = label.describe(labeler.security_views());
        assert!(described.contains("user_birthday"));
        assert!(described.contains("user_full"));
        assert!(!described.contains("user_location"));
    }

    #[test]
    fn presence_views_answer_uid_only_queries() {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let labeler = BitVectorLabeler::new(registry);
        let catalog = &schema.catalog;
        // Which of my friends have photos?  Only needs the photo presence view.
        let q = parse_query(catalog, "Q(u) :- Photo(pid, u, aid, c, pl, ct, l, fr)").unwrap();
        let label = labeler.label_query(&q);
        let described = label.describe(labeler.security_views());
        assert!(described.contains("photo_presence"));
        assert!(described.contains("photo_full"));
    }

    #[test]
    fn projection_view_helper_exposes_exactly_the_requested_columns() {
        let schema = facebook_catalog();
        let friend = schema.friend();
        let view = projection_view(&schema, friend, &["uid", "friend_uid"]);
        assert_eq!(view.distinguished_vars().count(), 2);
        assert_eq!(view.existential_vars().count(), 1);
        let names: Vec<&str> = view
            .distinguished_vars()
            .map(|v| view.var_name(v))
            .collect();
        assert_eq!(names, vec!["uid", "friend_uid"]);
    }

    #[test]
    fn views_of_lists_per_relation_views() {
        let schema = facebook_catalog();
        let registry = facebook_security_views(&schema);
        let like = schema.catalog.resolve("Like").unwrap();
        let ids = registry.views_for_relation(like);
        assert_eq!(ids.len(), 3);
        let names: Vec<&str> = ids
            .iter()
            .map(|id| registry.view(*id).name.as_str())
            .collect();
        assert_eq!(names, vec!["like_full", "like_meta", "like_presence"]);
    }
}
