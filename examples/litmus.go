// Package examples embeds the checked-in litmus sources (*.litmus in
// this directory). The files named in litmus.Catalog's catalogFiles
// list are the classic shapes, each carrying its tso and pso expect
// lines; the rest are the Dekker, Peterson and bakery protocol
// attempts. The subdirectories are runnable example programs.
package examples

import "embed"

// Litmus holds every *.litmus file of this directory, by base name.
//
//go:embed *.litmus
var Litmus embed.FS
