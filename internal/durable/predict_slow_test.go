//go:build slow

package durable

func init() { predictTrials = 3000 }
