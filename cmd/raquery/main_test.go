package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeDB(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.txt")
	data := "@R 2\nR 1,10\nR 1,20\nR 2,10\n@S 1\nS 10\nS 20\n@Visits 2\nVisits 1,2\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRA(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	err := run([]string{"-db", db, "-ra",
		"diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))", "-trace"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1)") || !strings.Contains(out.String(), "max intermediate") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunOptimize(t *testing.T) {
	db := writeDB(t)
	division := "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"
	var plain, opt bytes.Buffer
	if err := run([]string{"-db", db, "-ra", division}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-db", db, "-ra", division, "-optimize", "-explain"}, &opt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine: xra", "division", "est rows"} {
		if !strings.Contains(opt.String(), want) {
			t.Errorf("optimized output missing %q:\n%s", want, opt.String())
		}
	}
	if !strings.HasSuffix(opt.String(), plain.String()) {
		t.Errorf("optimized result differs from plain:\nplain: %q\nopt:   %q", plain.String(), opt.String())
	}
}

func TestRunExplainUnoptimized(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-ra", "project[1](R)", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rules: off") {
		t.Errorf("explain without -optimize should say rules are off:\n%s", out.String())
	}
}

func TestRunSA(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-sa", "semijoin[2=1](R, S)", "-trace"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1, 10)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunGF(t *testing.T) {
	db := writeDB(t)
	var out bytes.Buffer
	if err := run([]string{"-db", db, "-gf", "exists y (R(x, y) & y = '10')", "-vars", "x"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(1)") || !strings.Contains(out.String(), "(2)") {
		t.Errorf("output = %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	db := writeDB(t)
	cases := [][]string{
		{},                                   // missing db
		{"-db", db},                          // no query
		{"-db", "/nonexistent"},              // bad path
		{"-db", db, "-ra", "join[9=9](R,S)"}, // bad expression
		{"-db", db, "-gf", "R(x"},            // bad formula
		{"-db", db, "-gf", "Nope(x)"},        // unknown relation
		{"-db", db, "-sa", "semijoin[2=1](R, S)", "-optimize"}, // planner is -ra only
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestTraceOutputPinned pins the -trace output of every trace-printing
// path — materialized, governed streaming and planned, for -ra and -sa
// — byte for byte. All of them print the one trace type through its
// String method.
func TestTraceOutputPinned(t *testing.T) {
	db := writeDB(t)
	division := "diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))"
	semijoin := "semijoin[2=1](R, S)"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ra", division, "-trace"},
			"       3  R\n       2  project[1](R)\n       3  R\n       2  project[1](R)\n       2  S\n       4  join[true](project[1](R), S)\n       3  R\n       1  diff(join[true](project[1](R), S), R)\n       1  project[1](diff(join[true](project[1](R), S), R))\n       1  diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))\nmax intermediate: 4\n(1)\n"},
		{[]string{"-ra", division, "-trace", "-timeout", "5s"},
			"       3  R\n       3  project[1](R)\n       3  R\n       3  project[1](R)\n       0  S\n       4  join[true](project[1](R), S)\n       0  R\n       1  diff(join[true](project[1](R), S), R)\n       1  project[1](diff(join[true](project[1](R), S), R))\n       2  diff(project[1](R), project[1](diff(join[true](project[1](R), S), R)))\nmax intermediate: 4\n(1)\n"},
		{[]string{"-ra", division, "-trace", "-optimize"},
			"       3  R\n       2  S\n       3  join[2=1](R, S)\n       2  gamma[1;count(2)](join[2=1](R, S))\n       2  S\n       1  gamma[;count(1)](S)\n       1  join[2=1](gamma[1;count(2)](join[2=1](R, S)), gamma[;count(1)](S))\n       1  project[1](join[2=1](gamma[1;count(2)](join[2=1](R, S)), gamma[;count(1)](S)))\nmax intermediate: 3\n(1)\n"},
		{[]string{"-sa", semijoin, "-trace"},
			"       3  R\n       2  S\n       3  semijoin[2=1](R, S)\nmax intermediate: 3\n(1, 10)\n(1, 20)\n(2, 10)\n"},
		{[]string{"-sa", semijoin, "-trace", "-timeout", "5s"},
			"       3  R\n       2  S\n       3  semijoin[2=1](R, S)\nmax intermediate: 3\n(1, 10)\n(1, 20)\n(2, 10)\n"},
	} {
		var out bytes.Buffer
		if err := run(append([]string{"-db", db}, c.args...), &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if out.String() != c.want {
			t.Errorf("%v:\n got %q\nwant %q", c.args, out.String(), c.want)
		}
	}
}

// TestInvalidExpressionErrors: an out-of-range expression fails with
// an error naming its algebra on the materialized and governed paths
// alike, never a panic.
func TestInvalidExpressionErrors(t *testing.T) {
	db := writeDB(t)
	for _, c := range []struct {
		args   []string
		prefix string
	}{
		{[]string{"-ra", "join[9=9](R,S)"}, "ra: "},
		{[]string{"-ra", "join[9=9](R,S)", "-timeout", "5s"}, "ra: "},
		{[]string{"-sa", "semijoin[9=1](R, S)"}, "sa: "},
		{[]string{"-sa", "semijoin[9=1](R, S)", "-timeout", "5s"}, "sa: "},
	} {
		var out bytes.Buffer
		err := run(append([]string{"-db", db}, c.args...), &out)
		if err == nil || !strings.Contains(err.Error(), c.prefix) {
			t.Errorf("%v: error %v, want one carrying %q", c.args, err, c.prefix)
		}
	}
}
