(module r-file
  (provide [main (-> integer? integer?)])
  (define st (box 0))
  (define (fopen) (begin (assert (zero? (unbox st))) (set-box! st 1)))
  (define (fread) (begin (assert (= (unbox st) 1)) 7))
  (define (fclose) (begin (assert (= (unbox st) 1)) (set-box! st 0)))
  (define (main n) (begin (fopen) (fread) (fclose) 0)))
