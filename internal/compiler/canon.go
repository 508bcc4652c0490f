package compiler

import (
	"sort"
	"strconv"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/opt"
)

// Map identity. Two materialized maps — possibly compiled from different
// queries, or from different deltas of one query, written with different
// variable names — hold the same contents whenever their definitions are
// alpha-equivalent and their key lists correspond positionally under the
// same renaming. CanonicalKey computes an interning key with exactly that
// property: equal keys imply equal map contents, so Compile hash-conses the
// maps of one query and CompileSet those of a whole query set, materializing
// each one once.
//
// The key is built in three steps:
//
//  1. normalize: the definition comes in simplified (opt.Simplify folded
//     its constants and trivial algebra; the compiler simplifies every query
//     once, before it keys it), and opt.NormalizeOrder rewrites every
//     product into the scheduler's deterministic factor order — both passes
//     are name-independent, so alpha-variants normalize to isomorphic trees;
//  2. sort: the terms of every Sum are ordered by their own (locally
//     alpha-renamed) rendering — addition commutes and Sum terms do not bind
//     variables for one another, so this is semantics-preserving and makes
//     the key insensitive to term order;
//  3. alpha-rename: every variable is renamed to v0, v1, ... in order of
//     first occurrence in a pre-order walk of the sorted tree, and the
//     renamed definition plus the renamed key list is rendered.
//
// The canonicalized expression is used only as a hash key; the stored map
// definition and its maintenance statements keep their original variables
// (every step builds new nodes and leaves def as it was).
func CanonicalKey(def agca.Expr, keys []string) string {
	return normalizedKey(opt.NormalizeOrder(def, agca.VarSet{}), keys)
}

// normalizedKey is steps 2 and 3 of CanonicalKey, for a definition that is
// already simplified and ordered (step 1), as every auxiliary map's is: it
// is keyed without being normalized twice.
func normalizedKey(e agca.Expr, keys []string) string {
	e = sortSumTerms(e)
	rename := alphaRenaming(e)
	canon := agca.String(agca.RenameVars(e, rename))
	renKeys := make([]string, len(keys))
	for i, k := range keys {
		if r, ok := rename[k]; ok {
			renKeys[i] = r
		} else {
			renKeys[i] = k
		}
	}
	return canon + " @ [" + strings.Join(renKeys, ",") + "]"
}

// sortSumTerms orders the terms of every Sum in the expression by an
// alpha-invariant rendering of each term, rendered once per term. Product
// factors are never reordered here: multiplication binds variables
// sideways, so factor order is semantic (NormalizeOrder already put
// products into a deterministic, binding-correct order).
func sortSumTerms(e agca.Expr) agca.Expr {
	return agca.Transform(e, func(x agca.Expr) agca.Expr {
		s, ok := x.(agca.Sum)
		if !ok {
			return x
		}
		type keyed struct {
			key  string
			term agca.Expr
		}
		byKey := make([]keyed, len(s.Terms))
		for i, t := range s.Terms {
			byKey[i] = keyed{alphaString(t), t}
		}
		sort.SliceStable(byKey, func(i, j int) bool { return byKey[i].key < byKey[j].key })
		terms := make([]agca.Expr, len(byKey))
		for i, k := range byKey {
			terms[i] = k.term
		}
		return agca.Sum{Terms: terms}
	})
}

// alphaString renders e with its variables alpha-renamed locally — the
// comparison key used to sort Sum terms without being fooled by names.
func alphaString(e agca.Expr) string {
	return agca.String(agca.RenameVars(e, alphaRenaming(e)))
}

// alphaRenaming maps every variable of e to v0, v1, ... in order of first
// occurrence in a deterministic pre-order walk. The renaming is injective,
// so renamed expressions are equal exactly when the originals are
// alpha-equivalent (modulo the sub-tree orderings normalized above).
func alphaRenaming(e agca.Expr) map[string]string {
	rename := map[string]string{}
	note := func(names ...string) {
		for _, n := range names {
			if _, ok := rename[n]; !ok {
				rename[n] = "v" + strconv.Itoa(len(rename))
			}
		}
	}
	agca.Walk(e, func(x agca.Expr) {
		switch n := x.(type) {
		case agca.Var:
			note(n.Name)
		case agca.Rel:
			note(n.Vars...)
		case agca.MapRef:
			note(n.Keys...)
		case agca.Lift:
			note(n.Var)
		case agca.AggSum:
			note(n.GroupBy...)
		}
	})
	return rename
}
