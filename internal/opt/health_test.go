package opt

import (
	"testing"

	"matview/internal/spjg"
)

// registerJoinView materializes and registers a view matching joinQuery.
func registerJoinView(t *testing.T, o *Optimizer, name string) *spjg.Query {
	t.Helper()
	def := joinQuery(t)
	if _, err := materialize(db(t), name, def); err != nil {
		t.Fatal(err)
	}
	if _, err := o.RegisterView(name, def); err != nil {
		t.Fatal(err)
	}
	return def
}

func TestUnhealthyViewIsNeverMatched(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	registerJoinView(t, o, "health_v")
	q := joinQuery(t)

	if res := runAndCompare(t, o, q); !res.UsesView {
		t.Fatal("fresh view not matched")
	}

	// Degrade: the plan must fall back to base tables, still correct.
	epoch := o.CatalogEpoch()
	o.SetViewHealth("health_v", false)
	if o.CatalogEpoch() == epoch {
		t.Fatal("marking a view unhealthy did not bump the catalog epoch")
	}
	if res := runAndCompare(t, o, q); res.UsesView {
		t.Fatal("unhealthy view appeared in a plan")
	}

	// Recover: matched again, epoch bumped again.
	epoch = o.CatalogEpoch()
	o.SetViewHealth("health_v", true)
	if o.CatalogEpoch() == epoch {
		t.Fatal("recovery did not bump the catalog epoch")
	}
	if res := runAndCompare(t, o, q); !res.UsesView {
		t.Fatal("recovered view not matched")
	}
}

func TestSetViewHealthIsIdempotentOnEpoch(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	registerJoinView(t, o, "health_idem")
	epoch := o.CatalogEpoch()
	o.SetViewHealth("health_idem", true) // already healthy: no-op
	if o.CatalogEpoch() != epoch {
		t.Fatal("no-op health update bumped the epoch")
	}
	o.SetViewHealth("health_idem", false)
	epoch = o.CatalogEpoch()
	o.SetViewHealth("health_idem", false) // already unhealthy: no-op
	if o.CatalogEpoch() != epoch {
		t.Fatal("repeated unhealthy update bumped the epoch")
	}
}

func TestDropViewClearsHealth(t *testing.T) {
	o := NewOptimizer(db(t).Catalog, DefaultOptions())
	registerJoinView(t, o, "health_drop")
	o.SetViewHealth("health_drop", false)
	if !o.DropView("health_drop") {
		t.Fatal("drop failed")
	}
	// A view registered again under the name starts healthy: it is matched.
	registerJoinView(t, o, "health_drop")
	if res := runAndCompare(t, o, joinQuery(t)); !res.UsesView {
		t.Fatal("health survived drop: the re-registered view is not matched")
	}
}
