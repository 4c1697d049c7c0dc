package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"distcoord/internal/nn"
)

// policy.json is the trained Abilene checkpoint the DRL workloads
// deploy; policyHash pins it (nn.Checksum). Regenerate both with
// -train-policy.
//
//go:embed policy.json
var policyBytes []byte

const policyHash = "283fd21959465105654a1f4689ab90b7817cc8b3d374876436ec0ae83f290ab2"

// digests.json pins, per digest table, the result digest of every input
// slot: the metrics digest of a simulated episode, or the actor digest
// of a training job. Regenerate it with -pin after a change that is
// meant to change results.
//
//go:embed digests.json
var digestsJSON []byte

var workloads = map[string]workload{
	"abilene-drl":      simSpecs["abilene-drl"].run,
	"abilene-gcasp":    simSpecs["abilene-gcasp"].run,
	"scale-burst-1000": simSpecs["scale-burst-1000"].run,
	"abilene-remote":   simSpecs["abilene-remote"].run,
	"abilene-train":    runTrain,
}

func pinnedDigest(table string, slot int) (string, error) {
	var tables map[string][]string
	if err := json.Unmarshal(digestsJSON, &tables); err != nil {
		return "", fmt.Errorf("reading pinned digests: %w", err)
	}
	if slot >= len(tables[table]) {
		return "", fmt.Errorf("no digest pinned for %s slot %d", table, slot)
	}
	return tables[table][slot], nil
}

// writeDigests recomputes every pinned digest on the untraced,
// in-process path and writes the table to path.
func writeDigests(path string, log io.Writer) error {
	tables := map[string][]string{}
	names := []string{"abilene-drl", "abilene-gcasp", "scale-burst-1000"}
	for _, name := range names {
		spec := simSpecs[name]
		su, err := spec.setup()
		if err != nil {
			return err
		}
		for slot := 0; slot < spec.slots; slot++ {
			ep, err := su.runUntraced(slot, &timing{})
			if err != nil {
				return fmt.Errorf("%s slot %d: %w", name, slot, err)
			}
			tables[spec.table] = append(tables[spec.table], fingerprint(ep.m))
			fmt.Fprintf(log, "%s slot %d: %s\n", name, slot, fingerprint(ep.m))
		}
		su.close()
	}
	for slot := 0; slot < trainSlots; slot++ {
		agent, _, err := trainJob(slotSeed(slot), trainEpisodes, trainHorizon, false)
		if err != nil {
			return fmt.Errorf("abilene-train slot %d: %w", slot, err)
		}
		d, err := actorDigest(agent)
		if err != nil {
			return err
		}
		tables["abilene-train"] = append(tables["abilene-train"], d)
		fmt.Fprintf(log, "abilene-train slot %d: %s\n", slot, d)
	}
	b, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writePolicy trains the Abilene checkpoint with the abilene-train
// procedure and policyEpisodes updates, writes it to path and prints
// its hash for policyHash.
func writePolicy(path string, log io.Writer) error {
	agent, probe, err := trainJob(0, policyEpisodes, trainHorizon, false)
	if err != nil {
		return err
	}
	if n := len(probe.marks); n > 0 {
		fmt.Fprintf(log, "final episode score %.4f\n", probe.marks[n-1].rec.Score)
	}
	if err := agent.Actor.SaveFile(path); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s, hash %s\n", path, nn.Checksum(data))
	return nil
}
