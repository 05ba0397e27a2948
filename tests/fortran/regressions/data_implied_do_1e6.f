C     one card asking for a million DATA elements: 35 s at PR 15
      PROGRAM DATADO
      REAL A(10)
      DATA (A(I),I=1,1000000)/1/
      END
