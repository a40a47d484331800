//! Location-based type inference: the judgment `Λ ⊢ loc ⇒ t̂` of the
//! paper's Fig. 15 (Appendix A).
//!
//! The central operation is *canonicalization* ("folding"): rewriting a raw
//! location so that its prefix passes through named object definitions.
//! For example, with the Fig. 7 library:
//!
//! * `u_info.out.id` canonicalizes to `User.id` (the response of `u_info`
//!   is a `User`, so the `id` field belongs to the `User` definition);
//! * `c_list.out.0.creator` canonicalizes to `Channel.creator`;
//! * `u_info.in.user` is already canonical (no named object on the way).

use apiphany_spec::{Label, Library, Loc, MethodSig, RecordTy, Root, SynTy};

/// The folded context reached while canonicalizing a location: either we
/// are "inside" a named object definition, or on a path that has not
/// crossed any named object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Folded {
    /// The location denotes the named object itself.
    Object(String),
    /// The location denotes a (canonical) path.
    Path(Loc),
}

impl Folded {
    /// The canonical location this context denotes. For an object context
    /// that is the object's root location.
    pub fn to_loc(&self) -> Loc {
        match self {
            Folded::Object(o) => Loc::object(o.clone()),
            Folded::Path(loc) => loc.clone(),
        }
    }
}

/// A borrowed position in the library: the syntactic type a folded
/// context denotes, as far as a label can step into it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cursor<'l> {
    /// A method root, which steps only by `in` and `out`.
    Method(&'l MethodSig),
    /// A record: an object definition, a parameter record or an ad-hoc
    /// record type. Steps by field name.
    Record(&'l RecordTy),
    /// An array, which steps by the element label.
    Array(&'l SynTy),
    /// A scalar, or an object the library does not define: no label steps.
    Leaf,
}

impl<'l> Cursor<'l> {
    /// The cursor at a named object's root.
    pub(crate) fn object(lib: &'l Library, name: &str) -> Cursor<'l> {
        lib.objects.get(name).map_or(Cursor::Leaf, Cursor::Record)
    }

    fn of_ty(ty: &'l SynTy) -> Cursor<'l> {
        match ty {
            SynTy::Record(r) => Cursor::Record(r),
            SynTy::Array(elem) => Cursor::Array(elem),
            _ => Cursor::Leaf,
        }
    }
}

/// Where one label leads from a cursor — the folding rule of Fig. 15.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step<'l> {
    /// ObjFollow: the label enters a named object, which folds the prefix
    /// away; the new context is that object's root.
    Object(&'l str),
    /// PathFollow / Arr / AdHoc: the canonical path extends by the label.
    Path(Cursor<'l>),
}

/// Steps a cursor by one label. `None` when the library does not describe
/// the location (labels never step *through* a named object: folding
/// re-roots the cursor at the object's definition instead).
pub(crate) fn lookup_step<'l>(at: Cursor<'l>, label: &Label) -> Option<Step<'l>> {
    let ty = match (at, label) {
        (Cursor::Method(sig), Label::In) => return Some(Step::Path(Cursor::Record(&sig.params))),
        (Cursor::Method(sig), Label::Out) => &sig.response,
        (Cursor::Record(r), Label::Named(name)) => &r.field(name)?.ty,
        (Cursor::Array(elem), Label::Elem) => elem,
        _ => return None,
    };
    Some(match ty {
        SynTy::Object(o) => Step::Object(o),
        _ => Step::Path(Cursor::of_ty(ty)),
    })
}

/// Canonicalizes (folds) a location against the library.
///
/// Returns `None` when the location does not exist in the library (e.g. a
/// response field that the spec does not declare); callers fall back to the
/// raw location in that case, matching the paper's treatment of locations
/// "not in DS".
pub fn fold(lib: &Library, loc: &Loc) -> Option<Folded> {
    let (mut ctx, mut at) = match &loc.root {
        Root::Object(o) => (Folded::Object(o.clone()), Cursor::Record(lib.objects.get(o)?)),
        Root::Method(f) => {
            (Folded::Path(Loc::method(f.clone())), Cursor::Method(lib.methods.get(f)?))
        }
    };
    for label in &loc.path {
        (ctx, at) = match lookup_step(at, label)? {
            Step::Object(o) => (Folded::Object(o.to_string()), Cursor::object(lib, o)),
            Step::Path(next) => (Folded::Path(ctx.to_loc().child(label.clone())), next),
        };
    }
    Some(ctx)
}

/// Canonicalizes a location that denotes a *scalar* value, returning the
/// canonical location whose loc-set type the scalar belongs to.
///
/// Falls back to the raw location when the library does not describe it
/// (the spec and the observed traffic can disagree in practice).
pub fn canonical_scalar_loc(lib: &Library, loc: &Loc) -> Loc {
    match fold(lib, loc) {
        Some(ctx) => ctx.to_loc(),
        None => loc.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::fixtures::fig7_library;

    fn mloc(parts: &str) -> Loc {
        let lib = fig7_library();
        Loc::parse(parts, |n| lib.is_object(n)).unwrap()
    }

    #[test]
    fn folds_through_response_object() {
        let lib = fig7_library();
        // u_info.out.id ⇒ User.id (paper Appendix A's worked example).
        let canon = canonical_scalar_loc(&lib, &mloc("u_info.out.id"));
        assert_eq!(canon, mloc("User.id"));
    }

    #[test]
    fn folds_through_array_elements() {
        let lib = fig7_library();
        let canon = canonical_scalar_loc(&lib, &mloc("c_list.out.0.creator"));
        assert_eq!(canon, mloc("Channel.creator"));
    }

    #[test]
    fn folds_nested_objects() {
        let lib = fig7_library();
        // u_info.out.profile.email ⇒ Profile.email (two folds).
        let canon = canonical_scalar_loc(&lib, &mloc("u_info.out.profile.email"));
        assert_eq!(canon, mloc("Profile.email"));
    }

    #[test]
    fn parameter_locations_stay_put() {
        let lib = fig7_library();
        let canon = canonical_scalar_loc(&lib, &mloc("u_info.in.user"));
        assert_eq!(canon, mloc("u_info.in.user"));
    }

    #[test]
    fn response_array_of_scalars() {
        let lib = fig7_library();
        let canon = canonical_scalar_loc(&lib, &mloc("c_members.out.0"));
        assert_eq!(canon, mloc("c_members.out.0"));
    }

    #[test]
    fn unknown_locations_fall_back_to_raw() {
        let lib = fig7_library();
        let raw = mloc("u_info.out.nonexistent_field");
        assert_eq!(canonical_scalar_loc(&lib, &raw), raw);
        let raw = mloc("unknown_method.out");
        assert_eq!(canonical_scalar_loc(&lib, &raw), raw);
    }

    #[test]
    fn fold_reports_object_contexts() {
        let lib = fig7_library();
        match fold(&lib, &mloc("u_info.out")).unwrap() {
            Folded::Object(o) => assert_eq!(o, "User"),
            other => panic!("expected object fold, got {other:?}"),
        }
    }
}
