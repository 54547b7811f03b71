package main

import (
	"testing"

	"repro/internal/experiment"
)

func TestRunRejectsBadInput(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("no case should fail")
	}
	if err := run([]string{"0"}); err == nil {
		t.Fatal("case 0 should fail")
	}
	if err := run([]string{"12"}); err == nil {
		t.Fatal("case 12 should fail")
	}
	if err := run([]string{"nope"}); err == nil {
		t.Fatal("non-numeric case should fail")
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCaseTen(t *testing.T) {
	if err := run([]string{"10"}); err != nil {
		t.Fatal(err)
	}
}

func TestReportFailedAttackIsAnError(t *testing.T) {
	r := experiment.CaseResult{Case: experiment.Case{ID: 3}, AttackConsequence: true, AttackAlarms: 1}
	if err := report(r); err == nil {
		t.Fatal("an attack that raised an alarm reported no error")
	}
	r.AttackAlarms = 0
	if err := report(r); err != nil {
		t.Fatalf("a silent attack with its consequence reported %v", err)
	}
}
