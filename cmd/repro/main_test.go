package main

import (
	"strings"
	"testing"
)

func TestSelectExperimentsRejectsUnknownKey(t *testing.T) {
	exps := table(&params{})
	_, err := selectExperiments(exps, "table1,tabel1")
	if err == nil {
		t.Fatal("mistyped key tabel1 was accepted")
	}
	for _, want := range []string{`"tabel1"`, strings.Join(keys(exps), ",")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestSelectExperimentsAcceptsEveryKey(t *testing.T) {
	exps := table(&params{})
	for _, k := range keys(exps) {
		sel, err := selectExperiments(exps, " "+k+" ")
		if err != nil {
			t.Errorf("key %s: %v", k, err)
			continue
		}
		if len(sel) != 1 || sel[0].key != k {
			t.Errorf("key %s selected %v", k, keys(sel))
		}
	}
	all, err := selectExperiments(exps, "")
	if err != nil || len(all) != len(exps) {
		t.Fatalf("empty -only selected %d of %d experiments (err %v)", len(all), len(exps), err)
	}
	// Selection keeps table order, not -only order.
	sel, err := selectExperiments(exps, "fig7,table1")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(keys(sel), ","); got != "table1,fig7" {
		t.Errorf("selected %s, want table order table1,fig7", got)
	}
}

func TestTableKeysUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range keys(table(&params{})) {
		if seen[k] {
			t.Errorf("key %s appears twice in the table", k)
		}
		seen[k] = true
	}
}
