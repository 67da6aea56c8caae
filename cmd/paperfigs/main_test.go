package main

import "testing"

// TestFigureNames pins the -fig vocabulary the usage text documents. main
// looks the name up in this table before it simulates anything, so a name
// missing from it exits 2 at once (CI checks that end to end).
func TestFigureNames(t *testing.T) {
	for _, name := range []string{"6", "7", "8", "9", "10", "11", "12", "13", "14", "ssa-drop", "all"} {
		if figures[name] == nil {
			t.Errorf("-fig %s has no rendering", name)
		}
	}
}
